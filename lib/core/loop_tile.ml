(** The [-affine-loop-tile] pass (§5.2.4): tile a perfect, constant-bound
    loop band with per-loop tile sizes. Following the paper's DSE flow, all
    generated intra-tile (point) loops are sunk into the innermost loop
    region — ready to be fully unrolled for computation parallelism. Each
    tiled loop's uses are rewritten to [tile_iv + point_iv] via
    [affine.apply], which canonicalization composes into the access maps.
    Tiling legality (band permutability) is assumed validated by the caller
    (the DSE checks dependences before selecting tile sizes; identity tiling
    is always legal). *)

open Mir
open Dialects

module A = Affine

(** Tile the band rooted at its outermost loop with [sizes] (one per band
    loop, outermost first; size 1 leaves a loop untiled). Sizes must divide
    the trip counts; non-dividing sizes are clamped to 1. Returns [None]
    when the band is imperfect or has variable bounds. *)
let tile_band ctx band ~sizes : Ir.op option =
  let n = List.length band in
  if List.length sizes <> n then invalid_arg "Loop_tile.tile_band: arity";
  if (not (Affine_d.band_is_perfect band)) || n = 0 then None
  else if not (List.for_all Affine_d.has_const_bounds band) then None
  else begin
    let infos =
      List.map2
        (fun l s ->
          let lb, ub = Option.get (Affine_d.const_bounds l) in
          let step = (Affine_d.bounds l).Affine_d.step in
          let trip = max 0 (A.Expr.ceil_div (ub - lb) step) in
          let s = if s > 1 && trip mod s = 0 then s else 1 in
          (l, s, lb, ub, step))
        band sizes
    in
    if List.for_all (fun (_, s, _, _, _) -> s = 1) infos then None
    else begin
      let innermost = List.nth band (n - 1) in
      let inner_body =
        List.filter (fun x -> x.Ir.name <> "affine.yield") (Ir.body_ops innermost)
      in
      (* Build tile loops (reusing bounds, step widened), point loops, and
         the apply ops + substitution for tiled ivs. *)
      let applies = ref [] and subst = ref Ir.Value_map.empty in
      let tile_loops, point_loops =
        List.fold_left
          (fun (tls, pls) (l, s, _lb, _ub, step) ->
            if s = 1 then (tls @ [ `Keep l ], pls)
            else begin
              let old_iv = Affine_d.induction_var l in
              let ivt = Ir.Ctx.fresh ctx Ty.Index in
              let ivp = Ir.Ctx.fresh ctx Ty.Index in
              let apply_op, combined =
                Affine_d.apply ctx
                  ~map:
                    (A.Map.make ~num_dims:2 ~num_syms:0
                       [ A.Expr.add (A.Expr.dim 0) (A.Expr.dim 1) ])
                  [ ivt; ivp ]
              in
              applies := !applies @ [ apply_op ];
              subst := Ir.Value_map.add old_iv.Ir.vid combined !subst;
              ( tls @ [ `Tile (l, ivt, s, step) ],
                pls @ [ (ivp, s, step) ] )
            end)
          ([], []) infos
      in
      let new_inner_body =
        !applies @ Walk.substitute_uses_in_ops !subst inner_body @ [ Affine_d.yield ]
      in
      (* Innermost point loop holds the body; wrap point loops inside-out. *)
      let point_nest =
        List.fold_right
          (fun (ivp, s, step) inner_ops ->
            [
              Affine_d.for_op
                ~lb_map:(A.Map.constant [ 0 ])
                ~lb_operands:[]
                ~ub_map:(A.Map.constant [ s * step ])
                ~ub_operands:[] ~step ~iv:ivp inner_ops;
              Affine_d.yield;
            ])
          point_loops new_inner_body
      in
      (* Wrap tile loops outside-in. *)
      let rec build = function
        | [] -> point_nest
        | `Keep l :: rest -> [ Ir.with_body l (build rest); Affine_d.yield ]
        | `Tile (l, ivt, s, step) :: rest ->
            let b = Affine_d.bounds l in
            let l' =
              Affine_d.for_op ~lb_map:b.Affine_d.lb_map
                ~lb_operands:b.Affine_d.lb_operands ~ub_map:b.Affine_d.ub_map
                ~ub_operands:b.Affine_d.ub_operands ~step:(s * step) ~iv:ivt
                (build rest)
            in
            (* Preserve any directive attributes of the original loop. *)
            let l' =
              List.fold_left
                (fun acc (k, v) -> if k = "hlscpp.loop_directive" then Ir.set_attr acc k v else acc)
                l' l.Ir.attrs
            in
            [ l'; Affine_d.yield ]
      in
      match build tile_loops with
      | [ root; _yield ] -> Some root
      | [ root ] -> Some root
      | _ -> None
    end
  end

(** Tiling legality for the standalone pass: sinking all point loops
    innermost interleaves every band dimension, which is semantics-preserving
    iff the band is fully permutable (all dependence components non-negative).
    A single loop is always legal — strip-mining alone preserves the
    iteration order exactly. Found by differential fuzzing: tiling a band
    with backward or unanalyzable (non-linear access) dependences reordered
    dependent iterations. *)
let band_tiling_legal ~scope band =
  List.length band <= 1
  || Analysis.Dependence.fully_permutable (Loop_order_opt.band_deps ~scope band)

(** Pass form: tile every band with a uniform [tile_size] on each loop,
    skipping bands where tiling is not provably legal. *)
let run_on_func ~tile_size ctx f =
  let scope = Analysis.Loop_utils.scope_of f in
  Ir.with_body f
    (List.map
       (fun o ->
         if Affine_d.is_for o then
           let band = Affine_d.band o in
           if not (band_tiling_legal ~scope band) then o
           else
             match tile_band ctx band ~sizes:(List.map (fun _ -> tile_size) band) with
             | Some root -> root
             | None -> o
         else o)
       (Func.func_body f))

let pass ~tile_size =
  Pass.on_funcs "affine-loop-tile" (fun ctx f -> run_on_func ~tile_size ctx f)
