(** Affine memory dependence analysis over loop bands. Access functions are
    assumed (and checked to be) linear over the band's induction variables;
    dependences between accesses with equal coefficient matrices are {e
    uniform} and yield constant distance/direction vectors. Anything else is
    treated conservatively. Used by loop-order legality (§5.2.2), pipelining
    II estimation (Eq. 4), and loop fusion. *)

open Mir

module A = Affine

type direction = Eq | Lt of int  (** forced positive distance *) | Star

type dep = {
  src : Mem_access.t;
  dst : Mem_access.t;
  dirs : direction list;  (** one per band dim, outermost first *)
}

(* ---- Rational feasibility via Fourier-Motzkin --------------------------------
   Constraints are [coeffs . x + cst >= 0]. Rational relaxation of the integer
   dependence problem: infeasible (rational) implies infeasible (integer), so
   pruning a direction is sound; feasible keeps the dependence
   (conservative). *)

module Fm = struct
  type lin = { coeffs : int array; cst : int }

  exception Give_up

  let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)

  let normalize (c : lin) =
    let g = Array.fold_left (fun acc x -> gcd acc x) (abs c.cst) c.coeffs in
    if g > 1 then
      { coeffs = Array.map (fun x -> x / g) c.coeffs; cst = c.cst / g }
    else c

  (* b*p + a*n eliminates variable v when p.(v) = a > 0 and n.(v) = -b < 0. *)
  let combine v (p : lin) (n : lin) =
    let a = p.coeffs.(v) and b = -n.coeffs.(v) in
    let coeffs =
      Array.init (Array.length p.coeffs) (fun i ->
          (b * p.coeffs.(i)) + (a * n.coeffs.(i)))
    in
    normalize { coeffs; cst = (b * p.cst) + (a * n.cst) }

  (** Rational feasibility of the conjunction of [cons] over [nvars]
      variables. Raises [Give_up] past the blowup cap. *)
  let feasible ~nvars cons =
    let cap = 3000 in
    let rec go v cons =
      if List.length cons > cap then raise Give_up;
      if v = nvars then
        List.for_all (fun (c : lin) -> c.cst >= 0) cons
      else begin
        let pos, rest = List.partition (fun c -> c.coeffs.(v) > 0) cons in
        let neg, zero = List.partition (fun c -> c.coeffs.(v) < 0) rest in
        let combined =
          List.concat_map (fun p -> List.map (fun n -> combine v p n) neg) pos
        in
        go (v + 1) (zero @ combined)
      end
    in
    go 0 (List.map normalize cons)
end

(** Linear form of an access: per array dim, (coeffs over band dims, const).
    [None] when some dim expression is not linear. *)
let linear_form ~num_dims (a : Mem_access.t) =
  let rows = List.map (A.Expr.coefficients ~num_dims) a.Mem_access.exprs in
  if List.for_all Option.is_some rows then Some (List.map Option.get rows)
  else None

(** Compute the dependence between two accesses to the same memref, as a
    family of direction vectors over [num_dims] band dims. Returns [None] if
    the accesses provably never touch the same element; [Some dirs] otherwise.
    Conservative fallback: all-[Star].

    Uniform case (equal coefficient rows): solving
    [A·I + k_src = A·(I + delta) + k_dst] gives [A·delta = k_src - k_dst];
    dims appearing with nonzero coefficient get a forced delta, dims absent
    from every row are free ([Star]). *)
let dependence_forms ~num_dims (src : Mem_access.t) forms_src
    (dst : Mem_access.t) forms_dst =
  if src.Mem_access.memref.Ir.vid <> dst.Mem_access.memref.Ir.vid then None
  else if not (src.Mem_access.is_store || dst.Mem_access.is_store) then None
  else
    match (forms_src, forms_dst) with
    | Some rows_s, Some rows_d ->
        let coeffs_equal =
          List.for_all2 (fun (cs, _) (cd, _) -> cs = cd) rows_s rows_d
        in
        if not coeffs_equal then
          (* Non-uniform: first the GCD test, then a rational feasibility
             refinement with iteration domains and affine.if guards
             (Fourier-Motzkin). Without domain info, fall back to all-Star. *)
          let impossible =
            List.exists2
              (fun (cs, ks) (cd, kd) ->
                (* src indices over I, dst over I' — treat as 2n dims:
                   cs·I - cd·I' + (ks - kd) = 0 must be solvable. *)
                let coeffs = Array.append cs (Array.map (fun c -> -c) cd) in
                not (A.Solve.gcd_test coeffs (ks - kd)))
              rows_s rows_d
          in
          if impossible then None
          else Some (List.init num_dims (fun _ -> Star))
        else
          (* Uniform: per band dim j, collect the forced delta_j if some row
             has a nonzero coefficient on j. Allocation-free inner loops:
             this runs once per ordered same-memref access pair, which is
             quadratic in the body's access count on wide unrolled bodies. *)
          let exception Independent in
          let rows =
            List.map2 (fun (cs, ks) (_, kd) -> (cs, ks - kd)) rows_s rows_d
          in
          let dir_of j =
            (* Tentatively solve assuming all other deltas are 0:
               cs.(j) * delta_j = bd for each row where only dim j appears;
               a row with several nonzero coeffs cannot isolate — Star. *)
            let seen = ref false and forced = ref 0 in
            List.iter
              (fun ((cs : int array), bd) ->
                if cs.(j) <> 0 then begin
                  let others = ref false in
                  Array.iteri
                    (fun i c -> if i <> j && c <> 0 then others := true)
                    cs;
                  if not !others then
                    if bd mod cs.(j) <> 0 then raise Independent
                    else begin
                      let d = bd / cs.(j) in
                      if !seen then begin
                        if d <> !forced then raise Independent
                      end
                      else begin
                        seen := true;
                        forced := d
                      end
                    end
                end)
              rows;
            if not !seen then Star else if !forced = 0 then Eq else Lt !forced
          in
          (try
             let ds = List.init num_dims dir_of in
             (* Rows with coefficient only outside j were ignored; check the
                pure-constant rows: coeffs all zero -> need b = 0. *)
             let const_rows_ok =
               List.for_all
                 (fun ((cs : int array), bd) ->
                   Array.exists (fun c -> c <> 0) cs || bd = 0)
                 rows
             in
             if const_rows_ok then Some ds else None
           with Independent -> None)
    | _ -> Some (List.init num_dims (fun _ -> Star))

(* ---- Guard- and domain-aware refinement ----------------------------------- *)

(** The rows one access contributes to the rational feasibility system of
    every pair it takes part in, over the band dims: its touch rows ([None]
    for a non-linear one) and its representable affine.if guards, with
    [true] marking an equality. Unrepresentable guards are dropped (sound:
    fewer constraints only widen the dependence relation). A pure function
    of the access, so callers compute it once per access rather than once
    per pair and carried level. *)
type fm_rows = {
  touch : (int array * int) option list;
  guards : (int array * int * bool) list;
}

let fm_rows ~num_dims (a : Mem_access.t) =
  let linear e = A.Expr.coefficients ~num_dims (A.Expr.simplify e) in
  {
    touch = List.map linear a.Mem_access.exprs;
    guards =
      List.filter_map
        (fun (c : A.Set_.constraint_) ->
          Option.map (fun (cs, k) -> (cs, k, c.A.Set_.eq)) (linear c.A.Set_.expr))
        a.Mem_access.guards;
  }

(* The system of a pair depends on its accesses only through the touch-row
   differences and the two guard lists, so pairs of unrolled copies at the
   same relative offset share one entry. *)
module System_tbl = Hashtbl.Make (struct
  type t =
    (int array * int array * int) list
    * (int array * int * bool) list
    * (int array * int * bool) list

  let equal = ( = )
  let hash = Hashtbl.hash_param 100 400
end)

(** Carried-level feasibility for the pairs of one band, given its iteration
    domains [ranges] (inclusive, in iteration space): a memo of verdicts per
    pair system and carried level, and the number of rational feasibility
    checks actually run. *)
type carried = {
  num_dims : int;
  ranges : (int * int) array;
  verdicts : bool option array System_tbl.t;
  mutable checks : int;
}

let carried ~num_dims ~ranges =
  { num_dims; ranges; verdicts = System_tbl.create 64; checks = 0 }

(** Feasibility of the src-before-dst direction of a pair, carried at each
    band level, from the rows of both accesses. [None] when some touch row
    is not linear: every level is then conservatively feasible. Otherwise
    [Some feasible], where [feasible level] decides by one rational
    feasibility check (or the memo of {!carried}) the system: I and I' in
    their domains, both accesses touch the same element under their guards,
    I_d = I'_d for d < level and I'_level >= I_level + 1. Variables are
    x = I ++ I' (2*num_dims); the constraints shared by every level are
    built at most once per pair, and only if some verdict is not memoized. *)
let carried_levels (c : carried) (src : fm_rows) (dst : fm_rows) =
  let linear rows = List.for_all Option.is_some rows.touch in
  if not (linear src && linear dst) then None
  else begin
    let num_dims = c.num_dims in
    let touch =
      List.map2
        (fun r1 r2 ->
          let c1, k1 = Option.get r1 and c2, k2 = Option.get r2 in
          (c1, c2, k1 - k2))
        src.touch dst.touch
    in
    let key = (touch, src.guards, dst.guards) in
    let verdicts =
      match System_tbl.find_opt c.verdicts key with
      | Some v -> v
      | None ->
          let v = Array.make num_dims None in
          System_tbl.add c.verdicts key v;
          v
    in
    let nvars = 2 * num_dims in
    let lin coeffs cst = { Fm.coeffs; cst } in
    let neg = Array.map (fun x -> -x) in
    (* [coeffs] over I (side 0) or I' (side 1) *)
    let place side coeffs =
      let full = Array.make nvars 0 in
      Array.iteri (fun d x -> full.((side * num_dims) + d) <- x) coeffs;
      full
    in
    let shared =
      lazy
        (let cons = ref [] in
         let add x = cons := x :: !cons in
         (* domains *)
         Array.iteri
           (fun d (lo, hi) ->
             List.iter
               (fun side ->
                 let unit = place side (Array.init num_dims (fun i -> if i = d then 1 else 0)) in
                 add (lin unit (-lo));
                 add (lin (neg unit) hi))
               [ 0; 1 ])
           c.ranges;
         (* touch equalities *)
         List.iter
           (fun (c1, c2, k) ->
             let p1 = place 0 c1 and p2 = place 1 c2 in
             let diff = Array.init nvars (fun i -> p1.(i) - p2.(i)) in
             add (lin diff k);
             add (lin (neg diff) (-k)))
           touch;
         (* guards *)
         List.iter
           (fun (side, rows) ->
             List.iter
               (fun (cs, k, eq) ->
                 let full = place side cs in
                 add (lin full k);
                 if eq then add (lin (neg full) (-k)))
               rows.guards)
           [ (0, src); (1, dst) ];
         !cons)
    in
    let check level =
      (* lexicographic ordering: I_d = I'_d for d < level;
         I'_level >= I_level + 1 *)
      let cons = ref (Lazy.force shared) in
      let add x = cons := x :: !cons in
      for d = 0 to level - 1 do
        let diff = Array.init nvars (fun i ->
            if i = d then 1 else if i = num_dims + d then -1 else 0)
        in
        add (lin diff 0);
        add (lin (neg diff) 0)
      done;
      add (lin (Array.init nvars (fun i ->
          if i = level then -1 else if i = num_dims + level then 1 else 0)) (-1));
      c.checks <- c.checks + 1;
      try Fm.feasible ~nvars !cons with Fm.Give_up -> true
    in
    Some
      (fun level ->
        match verdicts.(level) with
        | Some v -> v
        | None ->
            let v = check level in
            verdicts.(level) <- Some v;
            v)
  end

(** The direction vector of a dependence carried at [level]: [Eq] outside,
    [Lt 1] at [level], [Star] inside. *)
let level_dirs ~num_dims level =
  List.init num_dims (fun d -> if d < level then Eq else if d = level then Lt 1 else Star)

(* ---- Candidate pairs -------------------------------------------------------- *)

(** An access with its linear form ({!linear_form}); [idx] is its position in
    the list given to {!candidate_blocks}, so callers can keep per-access
    data in arrays. *)
type entry = {
  access : Mem_access.t;
  form : (int array * int) list option;
  idx : int;
}

(* Residue signature of a linear form within a coefficient class: one entry
   per access-map row — the full constant for all-zero rows (the uniform
   solve requires equal constants there), the constant modulo the stride for
   rows with exactly one nonzero coefficient (the solve requires the
   constant difference divisible by it), and a don't-care marker for
   multi-coefficient rows (the solve derives no divisibility from them).
   Two same-class accesses with different signatures provably have no
   dependence: [dependence_forms] would raise [Independent] on the
   divisibility check or fail the constant-row check. *)
let residue_sig rows =
  List.map
    (fun ((cs : int array), k) ->
      let nz = ref 0 and last = ref 0 in
      Array.iter
        (fun c ->
          if c <> 0 then begin
            incr nz;
            last := c
          end)
        cs;
      match !nz with
      | 0 -> k
      | 1 ->
          let m = abs !last in
          ((k mod m) + m) mod m
      | _ -> min_int)
    rows

(** The ordered access pairs of [accs] that can depend, as blocks
    [(srcs, dsts)]: every pair of [srcs × dsts] is a candidate, including an
    access paired with itself (a store's self-dependence across
    iterations). The blocks are disjoint, and a pair in no block provably
    has no dependence ([dependence_forms] returns [None]).

    This sieve avoids the all-pairs scan, which is quadratic in the access
    count (a symbolically expanded gemm band carries ~1000 accesses =
    ~10^6 ordered pairs, nearly all provably independent). Accesses are
    grouped by memref (cross-memref pairs never depend) and load-only groups
    are dropped (a dependence needs a store). Within a group, accesses with
    the same coefficients (a class) are bucketed by {!residue_sig}, and only
    same-bucket pairs survive the uniform solve's divisibility sieve. Pairs
    across classes and pairs with a non-linear access form the remaining
    blocks; they are rare. *)
let candidate_blocks ~num_dims accs =
  let entries =
    List.mapi (fun idx a -> { access = a; form = linear_form ~num_dims a; idx }) accs
  in
  let gorder = ref [] in
  let groups : (int, entry list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let vid = e.access.Mem_access.memref.Ir.vid in
      match Hashtbl.find_opt groups vid with
      | Some r -> r := e :: !r
      | None ->
          gorder := vid :: !gorder;
          Hashtbl.add groups vid (ref [ e ]))
    entries;
  let group_blocks vid =
    let members = List.rev !(Hashtbl.find groups vid) in
    if not (List.exists (fun e -> e.access.Mem_access.is_store) members) then []
    else begin
      (* Same-coefficient classes (first-appearance order) with residue
         buckets inside each, plus non-linear irregulars. *)
      let class_tbl = Hashtbl.create 4 in
      let corder = ref [] and irregular = ref [] in
      List.iter
        (fun e ->
          match e.form with
          | None -> irregular := e :: !irregular
          | Some rows -> (
              let ckey = List.map fst rows in
              let skey = residue_sig rows in
              let sorder, buckets =
                match Hashtbl.find_opt class_tbl ckey with
                | Some c -> c
                | None ->
                    let c = (ref [], Hashtbl.create 8) in
                    Hashtbl.add class_tbl ckey c;
                    corder := ckey :: !corder;
                    c
              in
              match Hashtbl.find_opt buckets skey with
              | Some r -> r := e :: !r
              | None ->
                  sorder := skey :: !sorder;
                  Hashtbl.add buckets skey (ref [ e ])))
        members;
      let classes =
        List.rev_map
          (fun ckey ->
            let sorder, buckets = Hashtbl.find class_tbl ckey in
            List.rev_map (fun skey -> List.rev !(Hashtbl.find buckets skey)) !sorder)
          !corder
      in
      let irregular = List.rev !irregular in
      let flat = List.mapi (fun i c -> (i, List.concat c)) classes in
      let regulars = List.concat_map snd flat in
      (* same class, same residue bucket: the only uniform pairs that can
         depend *)
      List.concat_map (List.map (fun b -> (b, b))) classes
      (* different classes (non-uniform path) *)
      @ List.concat_map
          (fun (i, ci) ->
            List.filter_map (fun (j, cj) -> if i = j then None else Some (ci, cj)) flat)
          flat
      (* non-linear accesses: against every regular member both ways, and
         among themselves *)
      @ [ (irregular, regulars); (regulars, irregular); (irregular, irregular) ]
    end
  in
  List.concat_map group_blocks (List.rev !gorder)
  |> List.filter (fun (srcs, dsts) -> srcs <> [] && dsts <> [])

(** All dependences among [accs] (ordered pairs, both directions), over
    [num_dims] band dims. [ranges] (inclusive iteration-space bounds per
    dim) enables the guard-aware refinement of all-[Star] dependences into
    one dependence per feasible carried level ({!carried_levels}); an
    all-[Star] dependence with no feasible level is dropped. *)
let all_deps ?ranges ~num_dims accs =
  let rows = Array.of_list (List.map (fun a -> lazy (fm_rows ~num_dims a)) accs) in
  let carried = Option.map (fun ranges -> carried ~num_dims ~ranges) ranges in
  let pair_deps (s : entry) (d : entry) =
    match dependence_forms ~num_dims s.access s.form d.access d.form with
    | None -> []
    | Some dirs -> (
        let dep = { src = s.access; dst = d.access; dirs } in
        match carried with
        | Some carried when List.for_all (( = ) Star) dirs ->
            let feasible =
              match
                carried_levels carried (Lazy.force rows.(s.idx))
                  (Lazy.force rows.(d.idx))
              with
              | Some f -> f
              | None -> fun _ -> true
            in
            List.filter_map
              (fun level ->
                if feasible level then Some { dep with dirs = level_dirs ~num_dims level }
                else None)
              (List.init num_dims Fun.id)
        | _ -> [ dep ])
  in
  List.concat_map
    (fun (srcs, dsts) ->
      List.concat_map (fun s -> List.concat_map (pair_deps s) dsts) srcs)
    (candidate_blocks ~num_dims accs)

(** Expand [Star] entries into [Lt 1] and [Eq] alternatives, producing the
    set of concrete direction vectors to check for permutation legality.
    Reverse directions are covered because {!all_deps} emits ordered pairs
    both ways. *)
let expand_dirs dirs =
  List.fold_left
    (fun acc d ->
      match d with
      | Star -> List.concat_map (fun v -> [ v @ [ Eq ]; v @ [ Lt 1 ] ]) acc
      | d -> List.map (fun v -> v @ [ d ]) acc)
    [ [] ] dirs

(** Is a permuted direction vector legal (lexicographically non-negative)?
    [perm.(i)] is the new position of original dim [i]. *)
let permuted_legal perm dirs =
  let n = List.length dirs in
  let arr = Array.make n Eq in
  List.iteri (fun i d -> arr.(perm.(i)) <- d) dirs;
  let rec scan i =
    if i >= n then true
    else
      match arr.(i) with
      | Eq -> scan (i + 1)
      | Lt d when d > 0 -> true
      | Lt _ -> false
      | Star -> false
  in
  scan 0

(** Is permutation [perm] legal for all dependences [deps]? *)
let permutation_legal perm deps =
  List.for_all
    (fun dep -> List.for_all (permuted_legal perm) (expand_dirs dep.dirs))
    deps

(** Is the band fully permutable — every dependence direction component
    non-negative? This is the legality condition for rectangular tiling with
    point loops sunk innermost (the tile execution order interleaves all band
    dims, so lexicographic non-negativity alone is not enough). A
    lexicographically negative vector is the reverse image of an ordered pair
    and does not constrain; [Star] components are conservatively rejected
    (unknown sign, could become a backward component inside a tile). *)
let fully_permutable deps =
  let rec lex_negative = function
    | Eq :: rest -> lex_negative rest
    | Lt d :: _ -> d < 0
    | (Star :: _ | []) -> false
  in
  let component_nonneg = function Eq -> true | Lt d -> d > 0 | Star -> false in
  List.for_all
    (fun dep -> lex_negative dep.dirs || List.for_all component_nonneg dep.dirs)
    deps

(** Loop-carried dependence distance on band dim [dim], assuming all other
    dims are equal ([Eq]): for II computation of a pipelined loop. Returns
    [None] when no dependence is carried by [dim];
    [Some d] with the (positive) forced distance otherwise. [Star] at [dim]
    means carried at every distance: returns [Some 1]. *)
let carried_distance ~dim dep =
  let ok_elsewhere =
    List.for_all
      (fun (j, d) -> j = dim || d = Eq || d = Star)
      (List.mapi (fun j d -> (j, d)) dep.dirs)
  in
  if not ok_elsewhere then None
  else
    match List.nth dep.dirs dim with
    | Eq -> None
    | Lt d when d > 0 -> Some d
    | Lt _ -> None
    | Star -> Some 1
