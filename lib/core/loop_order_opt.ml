(** The [-affine-loop-order-opt] pass (§5.2.2): permute perfect loop bands to
    reduce the distance (or remove) loop-carried memory dependencies, thereby
    lowering the achievable pipeline II (Eq. 4). The pass performs
    affine-based dependence analysis, enumerates legal permutations, and picks
    the one minimizing the dependency-constrained II of the innermost loop.
    An explicit [perm-map] can instead be supplied (paper Table 2/3 syntax:
    the i-th entry is the new position of the i-th loop, outermost first). *)

open Mir
open Dialects
open Analysis

(* All permutations of [0..n-1]. *)
let rec permutations = function
  | [] -> [ [] ]
  | xs ->
      List.concat_map
        (fun x -> List.map (fun p -> x :: p) (permutations (List.filter (( <> ) x) xs)))
        xs

(** Accesses of a band's innermost body over the band ivs. *)
let band_accesses ~scope band =
  let basis = Loop_utils.band_ivs band in
  match List.rev band with
  | innermost :: _ -> Mem_access.collect ~scope ~basis innermost
  | [] -> []

let band_deps ~scope band =
  let num_dims = List.length band in
  let ranges =
    let rs = List.map Affine_d.const_trip_count band in
    if List.for_all Option.is_some rs then
      Some (Array.of_list (List.map (fun t -> (0, Option.get t - 1)) rs))
    else None
  in
  Dependence.all_deps ?ranges ~num_dims (band_accesses ~scope band)

(** Apply permutation [perm] (new position of each original loop) to a
    perfect band; returns the new root. The loop ops travel with their
    bounds, ivs and directives; only the nesting order changes. *)
let permute_band band perm =
  let n = List.length band in
  if List.length perm <> n then invalid_arg "Loop_order_opt.permute_band: arity";
  if List.sort compare perm <> List.init n Fun.id then
    invalid_arg "Loop_order_opt.permute_band: not a permutation";
  if not (Affine_d.band_is_perfect band) then
    invalid_arg "Loop_order_opt.permute_band: band is imperfect";
  let arr = Array.make n (List.hd band) in
  List.iteri (fun i l -> arr.(List.nth perm i) <- l) band;
  (* Innermost body travels from the original innermost loop. *)
  let innermost_body = Ir.body_ops (List.nth band (n - 1)) in
  let rec build i =
    if i = n - 1 then Ir.with_body arr.(i) innermost_body
    else Ir.with_body arr.(i) [ build (i + 1); Affine_d.yield ]
  in
  build 0

(** Permutation legality: every dependence direction vector stays
    lexicographically non-negative after permutation. A permutation is also
    illegal if it moves a loop with non-constant bounds (bound expressions
    reference outer ivs positionally and would escape their scope). *)
let legal_permutation ~deps band perm =
  let perm_arr = Array.of_list perm in
  (* A variable bound references outer induction variables; permuting could
     move its defining loop inside and break dominance. Run
     remove-variable-bound first (as the DSE pipeline does); here we simply
     refuse to permute bands containing variable bounds. *)
  let all_const = List.for_all Affine_d.has_const_bounds band in
  all_const && Dependence.permutation_legal perm_arr deps

(** Cost of a permutation: primarily the dependency-constrained II proxy of
    pipelining the innermost loop (~chain delay 7, relative comparison only —
    the QoR estimator refines with real delays); secondarily, maximize the
    number of innermost consecutive dependence-free dims (those are what
    tiling + unrolling parallelize without creating recurrences). *)
let dep_cost ~deps ~num_dims perm =
  let orig_at_pos =
    let a = Array.make num_dims 0 in
    List.iteri (fun orig pos -> a.(pos) <- orig) perm;
    a
  in
  let carried dim =
    List.exists
      (fun dep ->
        match Dependence.carried_distance ~dim dep with
        | Some d -> d > 0
        | None -> false)
      deps
  in
  let innermost_orig = orig_at_pos.(num_dims - 1) in
  let ii_proxy =
    List.fold_left
      (fun acc dep ->
        match Dependence.carried_distance ~dim:innermost_orig dep with
        | Some d when d > 0 -> max acc ((7 + d - 1) / d)
        | Some _ | None -> acc)
      1 deps
  in
  let rec free_suffix pos =
    if pos < 0 || carried orig_at_pos.(pos) then 0
    else 1 + free_suffix (pos - 1)
  in
  (ii_proxy, -free_suffix (num_dims - 1))

(** Find the best legal permutation for [band]; [perm_map] overrides the
    search. Returns the permutation applied (or [None] if left unchanged). *)
let optimize_band ?perm_map ~scope band =
  let n = List.length band in
  if n <= 1 || not (Affine_d.band_is_perfect band) then None
  else
    let deps = band_deps ~scope band in
    match perm_map with
    | Some perm ->
        if legal_permutation ~deps band perm then Some perm else None
    | None ->
        let identity = List.init n Fun.id in
        let candidates =
          List.filter (fun p -> legal_permutation ~deps band p) (permutations identity)
        in
        let scored =
          List.map (fun p -> (dep_cost ~deps ~num_dims:n p, p)) candidates
        in
        let best =
          List.fold_left
            (fun acc (c, p) ->
              match acc with
              | None -> Some (c, p)
              | Some (c0, _) when c < c0 -> Some (c, p)
              | acc -> acc)
            None scored
        in
        (match best with
        | Some (c_best, p_best) ->
            let c_id = dep_cost ~deps ~num_dims:n identity in
            if c_best < c_id then Some p_best else None
        | None -> None)

let run_on_func ?perm_map ctx f =
  ignore ctx;
  let scope = Loop_utils.scope_of f in
  Ir.with_body f
    (List.map
       (fun o ->
         if Affine_d.is_for o then
           let band = Affine_d.band o in
           match optimize_band ?perm_map ~scope band with
           | Some perm -> permute_band band perm
           | None -> o
         else o)
       (Func.func_body f))

let pass = Pass.on_funcs "affine-loop-order-opt" (fun ctx f -> run_on_func ctx f)
