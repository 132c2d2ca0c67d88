(* Shared test utilities: kernel compilation, interpreter harnesses, and
   semantic-equivalence checking used across the suites. *)

open Mir
open Scalehls [@@warning "-33"]

let compile_kernel ?(n = 8) kernel =
  let ctx = Ir.Ctx.create () in
  let src = Models.Polybench.source kernel ~n in
  let m = Frontend.Codegen.compile_source ctx src in
  let m = Pass.run_one Frontend.Raise_affine.pass ctx m in
  (ctx, m)

(* Run [f] on every element of [xs] on [pool]'s workers: one stream, every
   task submitted before any is awaited, results collected by id in
   submission order. *)
let run_on_pool pool f xs =
  let st = Parpool.stream pool in
  let ids = List.map (fun x -> Parpool.submit st (fun () -> f x)) xs in
  List.map (Parpool.await st) ids

(* Deterministic pseudo-random buffer contents. *)
let fill_pattern seed i = float_of_int ((((i * 7) + seed) mod 11) - 5) /. 2.

(* Build the interpreter arguments of a kernel at size [n]; scalars get fixed
   values, arrays pattern data. Returns (args, output buffers to compare). *)
let kernel_args ?(seed = 3) kernel ~n =
  let shapes = Models.Polybench.arg_shapes kernel ~n in
  let scalars = [ 1.5; 0.5; 2.0; -1.0 ] in
  let next_scalar = ref 0 in
  let bufs = ref [] in
  let args =
    List.mapi
      (fun i shape ->
        match shape with
        | None ->
            let v = List.nth scalars (!next_scalar mod 4) in
            incr next_scalar;
            Interp.VFloat v
        | Some dims ->
            let b = Interp.buffer_init dims Ty.F32 (fill_pattern (seed + i)) in
            bufs := b :: !bufs;
            Interp.VBuf b)
      shapes
  in
  (args, List.rev !bufs)

(* Run [m]'s kernel function on fresh pattern inputs; returns the
   concatenated contents of all array arguments after execution. *)
let run_kernel ?seed kernel ~n m =
  let top = Models.Polybench.name kernel in
  let args, bufs = kernel_args ?seed kernel ~n in
  ignore (Interp.run_func m top args);
  Array.concat (List.map (fun b -> b.Interp.data) bufs)

(* One definition shared with the fuzzing oracle: Mir.Float_compare. *)
let arrays_close ?eps a b = Float_compare.arrays_close ?eps a b

(* The central property: a transformation preserves kernel semantics. *)
let check_semantics ?seed ~msg kernel ~n m_before m_after =
  let want = run_kernel ?seed kernel ~n m_before in
  let got = run_kernel ?seed kernel ~n m_after in
  Alcotest.(check bool) msg true (arrays_close want got)

let check_verifies ~msg m =
  match Verify.verify m with
  | Ok () -> ()
  | Error errors ->
      Alcotest.failf "%s: IR verification failed: %a" msg
        Fmt.(list ~sep:(any "; ") Verify.pp_error)
        errors

(* Small C programs compiled through the front-end for targeted tests. *)
let compile_c_affine src =
  let ctx = Ir.Ctx.create () in
  let m = Frontend.Codegen.compile_source ctx src in
  let m = Pass.run_one Frontend.Raise_affine.pass ctx m in
  (ctx, m)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* Substring search (avoids an astring dependency). *)
let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

(* Naive reference for the scope environment ([Analysis.Loop_utils.scope]):
   every query walks the whole function [f] again, sharing no code with the
   environment's single-walk tables. *)
let naive_constant f (v : Ir.value) =
  Walk.fold_ops
    (fun acc (o : Ir.op) ->
      if Dialects.Arith.is_constant o && List.exists (Ir.value_equal v) o.Ir.results
      then Dialects.Arith.constant_int_value o
      else acc)
    None f

let naive_iv_loop f (v : Ir.value) =
  Walk.fold_ops
    (fun acc (o : Ir.op) ->
      if Dialects.Affine_d.is_for o
         && Ir.value_equal v (Dialects.Affine_d.induction_var o)
      then Some o
      else acc)
    None f

let naive_range f v =
  match naive_constant f v with
  | Some c -> Some (c, c)
  | None -> (
      match naive_iv_loop f v with
      | Some l -> (
          match Dialects.Affine_d.const_bounds l with
          | Some (lb, ub) when ub > lb -> Some (lb, ub - 1)
          | _ -> None)
      | None -> None)

(* Check every operand of every op of every function of [m] against the
   naive reference; returns the number of operands checked. *)
let check_scope_env ~msg m =
  let module L = Analysis.Loop_utils in
  let checked = ref 0 in
  List.iter
    (fun f ->
      let scope = L.scope_of f in
      Walk.iter_op
        (fun (o : Ir.op) ->
          List.iter
            (fun (v : Ir.value) ->
              incr checked;
              let fail what =
                Alcotest.failf "%s: %s of %%%d (operand of %s) disagrees" msg what
                  v.Ir.vid o.Ir.name
              in
              if L.constant scope v <> naive_constant f v then fail "constant";
              (match (L.iv_loop scope v, naive_iv_loop f v) with
              | Some a, Some b when a == b -> ()
              | None, None -> ()
              | _ -> fail "defining loop");
              if L.range scope v <> naive_range f v then fail "range")
            o.Ir.operands)
        f)
    (Ir.module_funcs m);
  !checked

(* Exhaustive reference for [Vhls.Synth.ii_dep]: materialize every
   (guard-refined) dependence with [Analysis.Dependence.all_deps] and fold
   ceil(delay / dist) over all of them, with no bound and no early exit. *)
let naive_ii_dep ~scope ~chain (target : Ir.op) =
  let module D = Analysis.Dependence in
  let basis = List.map Dialects.Affine_d.induction_var chain in
  let num_dims = List.length basis in
  let accs = Analysis.Mem_access.collect ~scope ~basis target in
  let trip_counts = List.map Dialects.Affine_d.const_trip_count chain in
  (* a chain with no iterations carries nothing *)
  if List.mem (Some 0) trip_counts then 1
  else
    let ranges =
      if List.for_all Option.is_some trip_counts then
        Some (Array.of_list (List.map (fun t -> (0, Option.get t - 1)) trip_counts))
      else None
    in
    let deps = D.all_deps ?ranges ~num_dims accs in
    let trips = Array.of_list (List.map (Option.value ~default:1) trip_counts) in
    let stride j =
      let s = ref 1 in
      for i = j + 1 to num_dims - 1 do
        s := !s * trips.(i)
      done;
      !s
    in
    let body =
      List.filter (fun x -> x.Ir.name <> "affine.yield") (Ir.body_ops target)
    in
    let g = Vhls.Sched.build ~delay_of:(fun o -> Vhls.Fu.op_delay o.Ir.name) body in
    let t = Vhls.Sched.asap g in
    let module Op_tbl = Hashtbl.Make (struct
      type nonrec t = Ir.op

      let equal = ( == )
      let hash = Hashtbl.hash
    end) in
    let times = Op_tbl.create 64 in
    Array.iteri
      (fun i nd -> Walk.iter_op (fun x -> Op_tbl.replace times x t.(i)) nd.Vhls.Sched.op)
      g.Vhls.Sched.nodes;
    let time_of op = Option.value ~default:0 (Op_tbl.find_opt times op) in
    let flat_distance (dep : D.dep) =
      let entries = List.mapi (fun j d -> (j, d)) dep.D.dirs in
      let stars = List.filter (fun (j, d) -> d = D.Star && trips.(j) > 1) entries in
      let forced =
        List.filter_map (fun (j, d) -> match d with D.Lt k -> Some (j, k) | _ -> None) entries
      in
      match (forced, stars) with
      | [], [] -> None
      | _, [] ->
          let dist = List.fold_left (fun acc (j, k) -> acc + (k * stride j)) 0 forced in
          if dist > 0 then Some dist else None
      | [], _ -> Some (stride (fst (List.nth stars (List.length stars - 1))))
      | _ -> Some 1
    in
    List.fold_left
      (fun acc (dep : D.dep) ->
        match flat_distance dep with
        | None -> acc
        | Some dist ->
            let src = dep.D.src.Analysis.Mem_access.op in
            let dst = dep.D.dst.Analysis.Mem_access.op in
            let delay = time_of src + Vhls.Fu.op_delay src.Ir.name - time_of dst in
            if delay <= 0 then acc else max acc ((delay + dist - 1) / dist))
      1 deps

(* Compare [Vhls.Synth.ii_dep] with {!naive_ii_dep} on every pipelined chain
   of every function of [m] (suffix chains of a flattened band included);
   returns the number of chains checked. *)
let check_ii_dep ~msg m =
  let checked = ref 0 in
  List.iter
    (fun f ->
      let scope = Analysis.Loop_utils.scope_of f in
      Walk.iter_op
        (fun (l : Ir.op) ->
          match Vhls.Synth.pipelined_chain l with
          | Some (chain, target) ->
              incr checked;
              let got = Vhls.Synth.ii_dep ~scope ~chain target in
              let want = naive_ii_dep ~scope ~chain target in
              if got <> want then
                Alcotest.failf "%s: ii_dep %d, exhaustive fold %d (chain of %d loops)"
                  msg got want (List.length chain)
          | None -> ())
        f)
    (Ir.module_funcs m);
  !checked
