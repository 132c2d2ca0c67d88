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
