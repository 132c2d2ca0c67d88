(** Symbolic unrolling for QoR estimation: expand the intra-tile point loops
    of a pipelined target *analytically*, without ever materializing the
    unrolled bodies on the transform path.

    The DSE's materialized pipeline legalizes a design point by fully
    unrolling everything nested under the pipeline target
    ({!Loop_pipeline.pipeline_band}), then running the full cleanup pipeline
    over the huge module — per-point cost grows with the tile-size product.
    The symbolic path instead runs the cleanup on the small *rolled* module
    (the target merely annotated, {!Loop_pipeline.annotate_band}), takes the
    cleaned innermost body as a template, and directly constructs the ops the
    materialized path would end up with: one template instance per point
    tuple, with the point induction variables folded into the access maps as
    constants (the exact rewrite canonicalization performs when it sees a
    constant map operand). Iteration order matches the materialized clone
    order — lexicographically ascending point tuples, innermost digit
    fastest — so the later store-forward/CSE replay makes the same
    (order-dependent) choices on both paths.

    Supported shape: a perfect nest of constant-bound point loops whose
    innermost body consists of affine loads/stores and pure single-result
    arith/math ops, with point ivs used only as access-map indices. Anything
    else raises {!Unsupported} and the DSE falls back to the materialized
    path for that point (counted in the run statistics; the differential
    oracle asserts the two paths agree wherever the symbolic one applies). *)

open Mir
open Dialects
open Analysis

module A = Affine

exception Unsupported of string

let unsupported fmt = Fmt.kstr (fun s -> raise (Unsupported s)) fmt

(* ---- Template extraction -------------------------------------------------- *)

(* Split a pipelined target's body into the perfect chain of intra-tile point
   loops (outermost first) and the innermost template ops. *)
let rec peel_point_nest (ops : Ir.op list) : Ir.op list * Ir.op list =
  let body = List.filter (fun o -> o.Ir.name <> "affine.yield") ops in
  match List.partition Affine_d.is_for body with
  | [], template -> ([], template)
  | [ l ], [] ->
      let ls, template = peel_point_nest (Ir.body_ops l) in
      (l :: ls, template)
  | _ :: _, _ -> unsupported "imperfect intra-tile point nest"

(* ---- Per-op expansion plans ----------------------------------------------- *)

(* How each access-map dimension behaves under expansion: kept (an outer iv
   or other loop-invariant index, renumbered consecutively) or folded (a
   point iv replaced by the iteration constant). *)
type access_plan = {
  a_map : A.Map.t;
  dim_plan : [ `Keep of int | `Point of int ] array;
  kept : Ir.value list;  (** kept index operands, in original order *)
  num_kept : int;
}

type op_plan =
  | Load of access_plan
  | Store of access_plan
  | Pure
  | If of if_plan

and if_plan = {
  i_set : A.Set_.t;
  i_dim_plan : [ `Keep of int | `Point of int ] array;
  i_kept : Ir.value list;
  i_num_kept : int;
  i_then : (Ir.op * op_plan) list;
  i_else : (Ir.op * op_plan) list;
}

let plan_dims pts_tbl (vs : Ir.value list) =
  let kept = ref [] and num_kept = ref 0 in
  let dim_plan =
    Array.of_list
      (List.map
         (fun (v : Ir.value) ->
           match Hashtbl.find_opt pts_tbl v.Ir.vid with
           | Some pi -> `Point pi
           | None ->
               let j = !num_kept in
               incr num_kept;
               kept := v :: !kept;
               `Keep j)
         vs)
  in
  (dim_plan, List.rev !kept, !num_kept)

let plan_access pts_tbl (o : Ir.op) : access_plan =
  let a_map = Affine_d.access_map o in
  let dim_plan, kept, num_kept = plan_dims pts_tbl (Memref.access_indices o) in
  if Array.length dim_plan <> A.Map.num_dims a_map then
    unsupported "access map/index arity mismatch on %s" o.Ir.name;
  { a_map; dim_plan; kept; num_kept }

let rec plan_op pts_tbl (o : Ir.op) : op_plan =
  let uses_point (v : Ir.value) = Hashtbl.mem pts_tbl v.Ir.vid in
  match o.Ir.name with
  | "affine.if" ->
      (* Point-dependent guards (e.g. perfectization's first-iteration store
         guard): the set is folded per point tuple; the post-expansion
         cleanup replay resolves the now-decidable branches exactly as
         [Simplify_affine_if] does on the materialized clones. *)
      let set = Affine_d.if_set o in
      let i_dim_plan, i_kept, i_num_kept = plan_dims pts_tbl o.Ir.operands in
      if Array.length i_dim_plan <> A.Set_.num_dims set then
        unsupported "if set/operand arity mismatch";
      let plan_branch i =
        List.map
          (fun x -> (x, plan_op pts_tbl x))
          (List.concat_map
             (fun (b : Ir.block) ->
               List.filter (fun x -> x.Ir.name <> "affine.yield") b.Ir.bops)
             (Ir.region o i))
      in
      If
        {
          i_set = set;
          i_dim_plan;
          i_kept;
          i_num_kept;
          i_then = plan_branch 0;
          i_else = plan_branch 1;
        }
  | _ when o.Ir.regions <> [] ->
      unsupported "region op %s in template" o.Ir.name
  | "affine.load" -> Load (plan_access pts_tbl o)
  | "affine.store" ->
      if uses_point (Memref.stored_value o) then
        unsupported "point iv stored as a value";
      Store (plan_access pts_tbl o)
  | "arith.constant" -> Pure
  | name
    when Arith.is_pure o && name <> "affine.apply"
         && List.length o.Ir.results = 1 ->
      if List.exists uses_point o.Ir.operands then
        unsupported "point iv consumed by %s" name;
      Pure
  | name -> unsupported "op %s in template" name

(* ---- Instantiation -------------------------------------------------------- *)

(* Fold one point assignment into an access: point dims become constants,
   kept dims are renumbered consecutively, and dims a constant fold made
   unreferenced are pruned — byte-for-byte the map canonicalization
   (fold_map_operands + prune_unused_dims) performs on a materialized clone
   whose iv operand became an [arith.constant]. *)
let fold_access plan ~vals ~sub =
  let reps =
    Array.to_list
      (Array.map
         (function
           | `Keep j -> A.Expr.dim j
           | `Point pi -> A.Expr.const vals.(pi))
         plan.dim_plan)
  in
  let map = A.Map.replace_dims ~num_dims:plan.num_kept reps plan.a_map in
  let idxs = List.map sub plan.kept in
  Canonicalize.prune_unused_dims map idxs

(* Fold one point assignment into an if's integer set, the same way but over
   the packed constraint-expression map (mirroring fold_set_operands_fix).
   Returns the *pre-substitution* kept operands so the caller can look their
   ranges up in the rolled module's range environment before substituting
   (pruning decisions are position-based, so they are substitution-
   independent). *)
let fold_set plan ~vals =
  let reps =
    Array.to_list
      (Array.map
         (function
           | `Keep j -> A.Expr.dim j
           | `Point pi -> A.Expr.const vals.(pi))
         plan.i_dim_plan)
  in
  let exprs =
    List.map (fun c -> c.A.Set_.expr) (A.Set_.constraints plan.i_set)
  in
  let map = A.Map.make ~num_dims:(A.Set_.num_dims plan.i_set) ~num_syms:0 exprs in
  let map = A.Map.replace_dims ~num_dims:plan.i_num_kept reps map in
  let map, operands = Canonicalize.prune_unused_dims map plan.i_kept in
  let constraints =
    List.map2
      (fun c e -> { c with A.Set_.expr = e })
      (A.Set_.constraints plan.i_set) (A.Map.results map)
  in
  (A.Set_.make ~num_dims:(A.Map.num_dims map) ~num_syms:0 constraints, operands)

(* One template instance at the point assignment [vals]. Guards are resolved
   here, fused into instantiation: once the point constants are folded into
   an [affine.if]'s set, most guards (perfectization's first-iteration
   stores, domain guards) become decidable, and the surviving branch is
   spliced directly instead of materializing the dead one and replaying
   [Simplify_affine_if] over the expanded module. The decision procedure is
   exactly {!Simplify_affine_if.simplify_if}'s, with operand ranges served
   from [scope] (the rolled function's {!Loop_utils.scope}, queried on
   pre-substitution operands — the rolled module is canonicalized, so kept
   operands are never constants and the environment of an instance operand
   is that of its template original). Resolution is post-order (branch
   bodies instantiate before the enclosing guard is decided), matching the
   pass's {!Walk.expand_in_op} replay order. *)
let instantiate ctx ~scope (template : (Ir.op * op_plan) list) ~vals :
    Ir.op list =
  let subst = ref Ir.Value_map.empty in
  let sub (v : Ir.value) =
    match Ir.Value_map.find_opt v.Ir.vid !subst with Some v' -> v' | None -> v
  in
  let rec inst_ops plans =
    List.concat_map
      (fun ((o : Ir.op), plan) ->
        match plan with
        | Load p ->
            let map, idxs = fold_access p ~vals ~sub in
            let mem = sub (Memref.accessed_memref o) in
            let r = Ir.Ctx.fresh ctx (Ir.result o).Ir.vty in
            subst := Ir.Value_map.add (Ir.result o).Ir.vid r !subst;
            [
              Ir.mk "affine.load"
                ~attrs:[ ("map", Attr.Map map) ]
                ~operands:(mem :: idxs) ~results:[ r ];
            ]
        | Store p ->
            let map, idxs = fold_access p ~vals ~sub in
            let v = sub (Memref.stored_value o) in
            let mem = sub (Memref.accessed_memref o) in
            [
              Ir.mk "affine.store"
                ~attrs:[ ("map", Attr.Map map) ]
                ~operands:(v :: mem :: idxs) ~results:[];
            ]
        | Pure ->
            let operands = List.map sub o.Ir.operands in
            let results =
              List.map
                (fun (r : Ir.value) ->
                  let r' = Ir.Ctx.fresh ctx r.Ir.vty in
                  subst := Ir.Value_map.add r.Ir.vid r' !subst;
                  r')
                o.Ir.results
            in
            [ { o with Ir.operands; Ir.results = results } ]
        | If p -> (
            let set, pre_kept = fold_set p ~vals in
            let keep set' =
              let then_ops = inst_ops p.i_then @ [ Affine_d.yield ] in
              let else_ops = inst_ops p.i_else @ [ Affine_d.yield ] in
              [
                Ir.set_attr
                  {
                    o with
                    Ir.operands = List.map sub pre_kept;
                    Ir.regions =
                      [
                        [ { Ir.bargs = []; Ir.bops = then_ops } ];
                        [ { Ir.bargs = []; Ir.bops = else_ops } ];
                      ];
                  }
                  "set" (Attr.Set set');
              ]
            in
            match A.Set_.trivial (A.Set_.simplify set) with
            | Some true -> inst_ops p.i_then
            | Some false -> inst_ops p.i_else
            | None -> (
                match Loop_utils.ranges scope pre_kept with
                | Some ranges -> (
                    match A.Set_.simplify_with_ranges set ~ranges with
                    | None -> inst_ops p.i_else
                    | Some s when A.Set_.constraints s = [] -> inst_ops p.i_then
                    | Some s -> keep s)
                | None -> keep set)))
      plans
  in
  inst_ops template

(* ---- Target expansion ----------------------------------------------------- *)

(* Expand the point loops inside one pipelined target. Returns [None] when
   there is nothing to expand (no loop anywhere inside the target). [scope]
   is the enclosing function's rolled-module scope environment, used to
   resolve instance guards. *)
let expand_target ctx ~scope (target : Ir.op) : Ir.op option =
  let point_loops, template = peel_point_nest (Ir.body_ops target) in
  if point_loops = [] then begin
    (* No point nest — but a loop hiding under a region op (e.g. an
       affine.if) would still be unrolled by the materialized path. *)
    if List.exists (Walk.exists Affine_d.is_for) template then
      unsupported "loop nested under a region op in target";
    None
  end
  else begin
    let pts_tbl = Hashtbl.create 8 in
    List.iteri
      (fun i l ->
        Hashtbl.replace pts_tbl (Affine_d.induction_var l).Ir.vid i)
      point_loops;
    let plans =
      List.map (fun o -> (o, plan_op pts_tbl o)) template
    in
    let n = List.length point_loops in
    let lbs = Array.make n 0
    and steps = Array.make n 1
    and trips = Array.make n 0 in
    List.iteri
      (fun i l ->
        match (Affine_d.const_bounds l, Loop_unroll.const_trip l) with
        | Some (lb, _), Some trip ->
            lbs.(i) <- lb;
            steps.(i) <- (Affine_d.bounds l).Affine_d.step;
            trips.(i) <- trip
        | _ -> unsupported "variable-bound point loop")
      point_loops;
    let total = Array.fold_left ( * ) 1 trips in
    if total = 0 then Some (Ir.with_body target [ Affine_d.yield ])
    else begin
      (* Enumerate point tuples lexicographically ascending, innermost digit
         fastest — the materialized innermost-first unroll's clone order. *)
      let ks = Array.make n 0 in
      let vals = Array.make n 0 in
      let chunks = ref [] in
      let continue_ = ref true in
      while !continue_ do
        for i = 0 to n - 1 do
          vals.(i) <- lbs.(i) + (ks.(i) * steps.(i))
        done;
        chunks := instantiate ctx ~scope plans ~vals :: !chunks;
        let rec inc i =
          if i < 0 then continue_ := false
          else begin
            ks.(i) <- ks.(i) + 1;
            if ks.(i) >= trips.(i) then begin
              ks.(i) <- 0;
              inc (i - 1)
            end
          end
        in
        inc (n - 1)
      done;
      Some
        (Ir.with_body target
           (List.concat (List.rev !chunks) @ [ Affine_d.yield ]))
    end
  end

(** Expand the intra-tile point loops of every pipelined loop in [m].
    Returns [(m', expanded)]; when [expanded] is false no target had point
    loops and [m] is returned physically unchanged (callers then skip the
    post-expansion cleanup replay — the module is already in its final
    materialized-equivalent form). Raises {!Unsupported} when any target
    falls outside the supported shape. *)
let expand ctx (m : Ir.op) : Ir.op * bool =
  let expanded = ref false in
  let is_target o = Affine_d.is_for o && Hlscpp.is_pipelined o in
  let expand_in_func f =
    if not (Walk.exists is_target f) then f
    else
      (* Guard resolution keys off the rolled function's scope environment
         (outer induction variables and constants keep their identities
         across expansion, and point ivs are folded away before lookup). *)
      let scope = Loop_utils.scope_of f in
      Walk.map_op
        (fun o ->
          if is_target o then
            match expand_target ctx ~scope o with
            | Some o' ->
                expanded := true;
                o'
            | None -> o
          else o)
        f
  in
  let m' =
    {
      m with
      Ir.regions =
        List.map
          (List.map (fun (b : Ir.block) ->
               {
                 b with
                 Ir.bops =
                   List.map
                     (fun o -> if Func.is_func o then expand_in_func o else o)
                     b.Ir.bops;
               }))
          m.Ir.regions;
    }
  in
  ((if !expanded then m' else m), !expanded)
