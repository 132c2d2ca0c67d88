(* QoR estimator and virtual-synthesizer tests: scheduling formulas (Eqs.
   2-4), resource accounting, and estimator-vs-tool agreement. *)

open Mir
open Dialects
open Scalehls
open Helpers

module P = Vhls.Platform

(* ---- Scheduling building blocks ------------------------------------------------ *)

let test_sched_chain_latency () =
  (* load -> mulf -> addf -> store: 2 + 4 + 5 + 1 = 12 *)
  let ctx = Ir.Ctx.create () in
  let mem = Ir.Ctx.fresh ctx (Ty.memref [ 4 ] Ty.F32) in
  let c0op, c0 = Arith.constant_i ctx 0 in
  let lop, lv = Affine_d.load_id ctx mem [ c0 ] in
  let mop, mv = Arith.mulf ctx lv lv in
  let aop, av = Arith.addf ctx mv mv in
  let sop = Affine_d.store_id ctx av mem [ c0 ] in
  let g = Vhls.Sched.build ~delay_of:(fun o -> Vhls.Fu.op_delay o.Ir.name) [ c0op; lop; mop; aop; sop ] in
  Alcotest.(check int) "critical path" 12 (Vhls.Sched.latency g)

let test_sched_parallel_ops () =
  (* two independent loads schedule in parallel: latency = 2, not 4 *)
  let ctx = Ir.Ctx.create () in
  let mem = Ir.Ctx.fresh ctx (Ty.memref [ 4 ] Ty.F32) in
  let mem2 = Ir.Ctx.fresh ctx (Ty.memref [ 4 ] Ty.F32) in
  let c0op, c0 = Arith.constant_i ctx 0 in
  let l1, _ = Affine_d.load_id ctx mem [ c0 ] in
  let l2, _ = Affine_d.load_id ctx mem2 [ c0 ] in
  let g = Vhls.Sched.build ~delay_of:(fun o -> Vhls.Fu.op_delay o.Ir.name) [ c0op; l1; l2 ] in
  Alcotest.(check int) "parallel loads" 2 (Vhls.Sched.latency g)

let test_sched_memory_ordering () =
  (* store then load of the same memref must serialize *)
  let ctx = Ir.Ctx.create () in
  let mem = Ir.Ctx.fresh ctx (Ty.memref [ 4 ] Ty.F32) in
  let c0op, c0 = Arith.constant_i ctx 0 in
  let fop, fv = Arith.constant_f ctx 1.0 in
  let sop = Affine_d.store_id ctx fv mem [ c0 ] in
  let lop, _ = Affine_d.load_id ctx mem [ c0 ] in
  let g = Vhls.Sched.build ~delay_of:(fun o -> Vhls.Fu.op_delay o.Ir.name) [ c0op; fop; sop; lop ] in
  (* store (1) then load (2) -> 3 *)
  Alcotest.(check int) "serialized" 3 (Vhls.Sched.latency g)

let test_alap_respects_deadline () =
  let ctx = Ir.Ctx.create () in
  let aop, av = Arith.constant_f ctx 1.0 in
  let mop, _ = Arith.mulf ctx av av in
  let g = Vhls.Sched.build ~delay_of:(fun o -> Vhls.Fu.op_delay o.Ir.name) [ aop; mop ] in
  let t = Vhls.Sched.alap g ~deadline:10 in
  (* the mul (delay 4) is scheduled as late as possible: start at 6 *)
  Alcotest.(check int) "alap start" 6 t.(1)

(* ---- Loop latency formulas --------------------------------------------------------- *)

let simple_loop_module ?(pipeline = false) ?(ii = 1) ~trip () =
  let ctx = Ir.Ctx.create () in
  let mem_ty = Ty.memref [ trip ] Ty.F32 in
  let f =
    Func.func ctx ~name:"l" ~inputs:[ mem_ty ] ~outputs:[] (fun args ->
        let mem = List.hd args in
        let loop =
          Affine_d.for_const ctx ~lb:0 ~ub:trip (fun iv ->
              let lop, lv = Affine_d.load_id ctx mem [ iv ] in
              let aop, av = Arith.addf ctx lv lv in
              [ lop; aop; Affine_d.store_id ctx av mem [ iv ]; Affine_d.yield ])
        in
        let loop =
          if pipeline then
            Hlscpp.set_loop_directive loop
              { Hlscpp.default_loop_directive with Hlscpp.loop_pipeline = true; loop_target_ii = ii }
          else loop
        in
        [ loop; Func.return_ [] ])
  in
  Ir.module_ [ f ]

let test_nonpipelined_loop_latency () =
  let m = simple_loop_module ~trip:10 () in
  let r = Vhls.Synth.synthesize m ~top:"l" in
  (* body: load 2 + addf 5 + store 1 = 8; iter overhead 1; 10*(8+1)+1 = 91 *)
  Alcotest.(check int) "latency" 91 r.Vhls.Synth.latency

let test_pipelined_loop_latency () =
  let m = simple_loop_module ~pipeline:true ~trip:10 () in
  let r = Vhls.Synth.synthesize m ~top:"l" in
  (* II = max(1, II_dep): A[i] has no loop-carried dep -> II 1.
     latency = 1*(10-1) + 8 + 2 = 19 *)
  Alcotest.(check int) "latency" 19 r.Vhls.Synth.latency

let test_pipelined_target_ii_respected () =
  let m = simple_loop_module ~pipeline:true ~ii:4 ~trip:10 () in
  let r = Vhls.Synth.synthesize m ~top:"l" in
  Alcotest.(check int) "latency with II=4" (4 * 9 + 8 + 2) r.Vhls.Synth.latency

(* II_dep: accumulation into a scalar cell forces II = recurrence length *)
let test_ii_dep_recurrence () =
  let ctx = Ir.Ctx.create () in
  let mem_ty = Ty.memref [ 16 ] Ty.F32 in
  let acc_ty = Ty.memref [ 1 ] Ty.F32 in
  let f =
    Func.func ctx ~name:"r" ~inputs:[ mem_ty; acc_ty ] ~outputs:[] (fun args ->
        let mem = List.nth args 0 and acc = List.nth args 1 in
        let loop =
          Affine_d.for_const ctx ~lb:0 ~ub:16 (fun iv ->
              let lop, lv = Affine_d.load_id ctx mem [ iv ] in
              let c0op, c0 = Arith.constant_i ctx 0 in
              let aop_l, av_l = Affine_d.load_id ctx acc [ c0 ] in
              let addop, sum = Arith.addf ctx av_l lv in
              [ lop; c0op; aop_l; addop; Affine_d.store_id ctx sum acc [ c0 ]; Affine_d.yield ])
        in
        let loop =
          Hlscpp.set_loop_directive loop
            { Hlscpp.default_loop_directive with Hlscpp.loop_pipeline = true }
        in
        [ loop; Func.return_ [] ])
  in
  let m = Ir.module_ [ f ] in
  let func = Ir.find_func_exn m "r" in
  let loop = List.hd (Analysis.Loop_utils.top_loops func) in
  let scope = Analysis.Loop_utils.scope_of func in
  let ii = Vhls.Synth.ii_dep ~scope ~chain:[ loop ] loop in
  (* recurrence: load acc (2) + addf (5) + store (1) = 8 at distance 1 *)
  Alcotest.(check int) "II_dep equals recurrence delay" 8 ii

(* A flattened chain whose pipelined inner loop has no iterations carries
   nothing: II_dep is 1, and neither the tool nor the estimator divides by
   the zero stride the empty inner loop gives the outer dim. *)
let test_ii_dep_zero_trip_chain () =
  let ctx = Ir.Ctx.create () in
  let f =
    Func.func ctx ~name:"z" ~inputs:[ Ty.memref [ 4 ] Ty.F32 ] ~outputs:[] (fun args ->
        let a = List.hd args in
        let inner =
          Affine_d.for_const ctx ~lb:0 ~ub:0 (fun j ->
              let l1, v1 = Affine_d.load_id ctx a [ j ] in
              let l2, v2 = Affine_d.load_id ctx a [ j ] in
              let add, sum = Arith.addf ctx v1 v2 in
              [ l1; l2; add; Affine_d.store_id ctx sum a [ j ]; Affine_d.yield ])
        in
        let inner =
          Hlscpp.set_loop_directive inner
            { Hlscpp.default_loop_directive with Hlscpp.loop_pipeline = true }
        in
        let outer = Affine_d.for_const ctx ~lb:0 ~ub:4 (fun _ -> [ inner; Affine_d.yield ]) in
        let outer =
          Hlscpp.set_loop_directive outer
            { Hlscpp.default_loop_directive with Hlscpp.flatten = true }
        in
        [ outer; Func.return_ [] ])
  in
  let m = Ir.module_ [ f ] in
  let func = Ir.find_func_exn m "z" in
  let outer = List.hd (Analysis.Loop_utils.top_loops func) in
  let scope = Analysis.Loop_utils.scope_of func in
  let chain, target = Option.get (Vhls.Synth.pipelined_chain outer) in
  Alcotest.(check int) "flattened chain" 2 (List.length chain);
  Alcotest.(check int) "II_dep of an empty chain" 1 (Vhls.Synth.ii_dep ~scope ~chain target);
  ignore (Vhls.Synth.synthesize m ~top:"z");
  ignore (Estimator.estimate m ~top:"z")

(* The pair with the largest delay is ruled out by an affine.if guard, as in
   trmm: B[i] is stored (at the end of a long chain) only for i >= 8, while
   the load of B[15 - i] in a later iteration i' > i only reaches B[i] for
   i <= 7. The bounded search must go past that pair to the 8-cycle
   accumulator recurrence; without the guard the pair carries 17 cycles at
   distance 1. *)
let guarded_recurrence_module ~guard =
  let ctx = Ir.Ctx.create () in
  let f =
    Func.func ctx ~name:"g" ~inputs:[ Ty.memref [ 16 ] Ty.F32; Ty.memref [ 1 ] Ty.F32 ]
      ~outputs:[] (fun args ->
        let b = List.nth args 0 and acc = List.nth args 1 in
        let loop =
          Affine_d.for_const ctx ~lb:0 ~ub:16 (fun iv ->
              let open Affine in
              let lb, l =
                Affine_d.load ctx b
                  ~map:(Map.of_expr ~num_dims:1 (Expr.sub (Expr.const 15) (Expr.dim 0)))
                  [ iv ]
              in
              let m1, x = Arith.mulf ctx l l in
              let a1, y = Arith.addf ctx x x in
              let a2, z = Arith.addf ctx y y in
              let c0op, c0 = Arith.constant_i ctx 0 in
              let la, av = Affine_d.load_id ctx acc [ c0 ] in
              let a3, sum = Arith.addf ctx av l in
              let sb = Affine_d.store_id ctx z b [ iv ] in
              let guarded =
                if guard then
                  Affine_d.if_
                    ~set:
                      (Set_.make ~num_dims:1 ~num_syms:0
                         [ Set_.ge (Expr.dim 0) (Expr.const 8) ])
                    ~operands:[ iv ] ~then_:[ sb; Affine_d.yield ] ~else_:[ Affine_d.yield ]
                else sb
              in
              [ lb; m1; a1; a2; c0op; la; a3; Affine_d.store_id ctx sum acc [ c0 ]; guarded;
                Affine_d.yield ])
        in
        let loop =
          Hlscpp.set_loop_directive loop
            { Hlscpp.default_loop_directive with Hlscpp.loop_pipeline = true }
        in
        [ loop; Func.return_ [] ])
  in
  Ir.module_ [ f ]

let test_ii_dep_guard_infeasible_max () =
  let ii_of ~guard =
    let m = guarded_recurrence_module ~guard in
    let func = Ir.find_func_exn m "g" in
    let loop = List.hd (Analysis.Loop_utils.top_loops func) in
    let scope = Analysis.Loop_utils.scope_of func in
    let got = Vhls.Synth.ii_dep ~scope ~chain:[ loop ] loop in
    Alcotest.(check int) "agrees with the exhaustive fold"
      (naive_ii_dep ~scope ~chain:[ loop ] loop)
      got;
    got
  in
  Alcotest.(check int) "unguarded: the 17-cycle pair" 17 (ii_of ~guard:false);
  Alcotest.(check int) "guarded: the accumulator recurrence" 8 (ii_of ~guard:true)

(* The bounded II_dep search equals the exhaustive fold on every pipelined
   chain of every design point a DSE evaluates on the six PolyBench
   kernels (small size, plus trmm at 16 where guards rule out most pairs),
   and on fixed-seed fuzz programs after every stage of their pass
   pipelines. Points differing only in target II share one module (II_dep
   does not read the target II), so each module is checked once. *)
let test_ii_dep_matches_exhaustive () =
  let checked = ref 0 in
  let check ~msg m = checked := !checked + check_ii_dep ~msg m in
  List.iter
    (fun (kernel, n, samples, iterations) ->
      let ctx = Ir.Ctx.create () in
      let top = Models.Polybench.name kernel in
      let m = Pipeline.compile_c ctx (Models.Polybench.source kernel ~n) in
      let cache = Eval_cache.create () in
      ignore (Dse.run ~samples ~iterations ~cache ctx m ~top ~platform:P.xc7z020);
      Eval_cache.bindings cache
      |> List.filter_map (fun (_, ev) -> Option.map (fun (e : Dse.evaluated) -> e.Dse.point) ev)
      |> List.map (fun (pt : Dse.point) -> { pt with Dse.target_ii = 1 })
      |> List.sort_uniq compare
      |> List.iter (fun pt ->
             match Dse.apply_point ctx m ~top pt with
             | m' -> check ~msg:(Fmt.str "%s-%d %a" top n Dse.pp_point pt) m'
             | exception Dse.Inapplicable -> ()))
    (List.map (fun k -> (k, 8, 8, 12)) Models.Polybench.all
    @ [ (Models.Polybench.Trmm, 16, 8, 12) ]);
  for seed = 1 to 40 do
    let p = Fuzz.Gen.program ~seed () in
    let msg = Printf.sprintf "fuzz seed %d" seed in
    check ~msg p.Fuzz.Gen.module_;
    ignore
      (List.fold_left
         (fun m name ->
           let m' =
             Pass.run_one (Option.get (Transform_lib.find_pass name)) (Ir.Ctx.of_op m) m
           in
           check ~msg:(msg ^ " after " ^ name) m';
           m')
         p.Fuzz.Gen.module_ (Fuzz.Gen.config p).Fuzz.Gen.pipeline)
  done;
  Alcotest.(check bool) "pipelined chains checked" true (!checked > 0)

(* II_res: more same-bank accesses per iteration than ports *)
let test_ii_res_port_limit () =
  let ctx = Ir.Ctx.create () in
  let mem_ty = Ty.memref [ 16 ] Ty.F32 in
  let f =
    Func.func ctx ~name:"p" ~inputs:[ mem_ty; Ty.memref [ 16 ] Ty.F32 ] ~outputs:[]
      (fun args ->
        let a = List.nth args 0 and b = List.nth args 1 in
        let loop =
          Affine_d.for_const ctx ~lb:0 ~ub:4 (fun iv ->
              (* four distinct loads of a per iteration, unpartitioned: 4
                 accesses / 2 ports = II_res 2 *)
              let mk_load off =
                Affine_d.load ctx a
                  ~map:(Affine.Map.of_expr ~num_dims:1 (Affine.Expr.add (Affine.Expr.dim 0) (Affine.Expr.const off)))
                  [ iv ]
              in
              let l0, v0 = mk_load 0 in
              let l1, v1 = mk_load 4 in
              let l2, v2 = mk_load 8 in
              let l3, v3 = mk_load 12 in
              let a1, s1 = Arith.addf ctx v0 v1 in
              let a2, s2 = Arith.addf ctx v2 v3 in
              let a3, s3 = Arith.addf ctx s1 s2 in
              [ l0; l1; l2; l3; a1; a2; a3; Affine_d.store_id ctx s3 b [ iv ]; Affine_d.yield ])
        in
        [ loop; Func.return_ [] ])
  in
  let func = List.hd (Ir.module_funcs (Ir.module_ [ f ])) in
  let loop = List.hd (Analysis.Loop_utils.top_loops func) in
  let basis = [ Affine_d.induction_var loop ] in
  let scope = Analysis.Loop_utils.scope_of func in
  Alcotest.(check int) "II_res = ceil(4/2)" 2 (Vhls.Synth.ii_res ~scope ~basis loop)

(* ---- Resource accounting ------------------------------------------------------------- *)

let test_memory_usage () =
  let mr = Ty.as_memref (Ty.memref [ 1024 ] Ty.F32) in
  let u = Vhls.Synth.memref_usage mr in
  (* 32 Kb in one bank -> 2 BRAM-18K blocks *)
  Alcotest.(check int) "bram blocks" 2 u.P.u_bram18;
  Alcotest.(check int) "bits" (1024 * 32) u.P.u_bits;
  let dram = Ty.as_memref (Ty.memref ~memspace:Ty.Memspace.dram [ 1024 ] Ty.F32) in
  Alcotest.(check int) "dram costs nothing" 0 (Vhls.Synth.memref_usage dram).P.u_bram18

let test_partitioned_memory_usage () =
  (* 16 banks of a small array still cost >= 16 blocks *)
  let layout = Hlscpp.partition_layout ~shape:[ 64 ] [ Hlscpp.Cyclic 16 ] in
  let mr = Ty.as_memref (Ty.memref ~layout:(Some layout) [ 64 ] Ty.F32) in
  Alcotest.(check int) "one block per bank" 16 (Vhls.Synth.memref_usage mr).P.u_bram18

let test_pipelined_fu_sharing () =
  (* 8 multiplies at II=4 need 2 units *)
  let ctx = Ir.Ctx.create () in
  let cop, c = Arith.constant_f ctx 1.0 in
  let muls = List.init 8 (fun _ -> fst (Arith.mulf ctx c c)) in
  let u = Vhls.Synth.pipelined_fu_usage (cop :: muls) ~ii:4 in
  Alcotest.(check int) "2 units x 3 dsp" 6 u.P.u_dsp

let test_platform_fits () =
  let u = { P.usage_zero with P.u_dsp = 221 } in
  Alcotest.(check bool) "over DSP budget" false (P.fits P.xc7z020 u);
  Alcotest.(check bool) "within budget" true
    (P.fits P.xc7z020 { P.usage_zero with P.u_dsp = 220 })

(* ---- Estimator vs virtual tool -------------------------------------------------------- *)

let test_estimator_matches_synth_on_kernels () =
  List.iter
    (fun k ->
      let ctx, m = compile_kernel ~n:8 k in
      let top = Models.Polybench.name k in
      let pt_space = Dse.build_space ~max_unroll:8 ~max_ii:4 ctx m ~top in
      let rng = Random.State.make [| 11 |] in
      let rec try_point attempts =
        if attempts = 0 then ()
        else
          let pt = Dse.random_point rng pt_space in
          match Dse.apply_point ctx m ~top pt with
          | m' ->
              let e = Estimator.estimate m' ~top in
              let s = Vhls.Synth.synthesize m' ~top in
              let ratio =
                float_of_int (max e.Estimator.latency s.Vhls.Synth.latency)
                /. float_of_int (max 1 (min e.Estimator.latency s.Vhls.Synth.latency))
              in
              Alcotest.(check bool)
                (Fmt.str "%s estimator within 2x of tool (ratio %.2f)" top ratio)
                true (ratio <= 2.0)
          | exception Dse.Inapplicable -> try_point (attempts - 1)
      in
      try_point 6)
    Models.Polybench.all

let test_estimates_monotone_in_trip () =
  let m10 = simple_loop_module ~trip:10 () in
  let m20 = simple_loop_module ~trip:20 () in
  let l10 = (Estimator.estimate m10 ~top:"l").Estimator.latency in
  let l20 = (Estimator.estimate m20 ~top:"l").Estimator.latency in
  Alcotest.(check bool) "larger trip, larger latency" true (l20 > l10)

let test_dataflow_interval () =
  (* two-stage dataflow: interval = max stage latency, latency = sum *)
  let ctx = Ir.Ctx.create () in
  let mem_ty = Ty.memref [ 8 ] Ty.F32 in
  let stage name trip =
    Func.func ctx ~name ~inputs:[ mem_ty ] ~outputs:[] (fun args ->
        let mem = List.hd args in
        [
          Affine_d.for_const ctx ~lb:0 ~ub:trip (fun iv ->
              let lop, lv = Affine_d.load_id ctx mem [ iv ] in
              [ lop; Affine_d.store_id ctx lv mem [ iv ]; Affine_d.yield ]);
          Func.return_ [];
        ])
  in
  let s1 = stage "s1" 8 and s2 = stage "s2" 4 in
  let top =
    Func.func ctx ~name:"top" ~inputs:[ mem_ty ] ~outputs:[] (fun args ->
        let mem = List.hd args in
        let c1, _ = Func.call ctx ~callee:"s1" ~result_tys:[] [ mem ] in
        let c2, _ = Func.call ctx ~callee:"s2" ~result_tys:[] [ mem ] in
        [ c1; c2; Func.return_ [] ])
  in
  let top = Func_pipeline.set_dataflow top in
  let m = Ir.module_ [ s1; s2; top ] in
  let r = Vhls.Synth.synthesize m ~top:"top" in
  let r1 = Vhls.Synth.synthesize m ~top:"s1" in
  let r2 = Vhls.Synth.synthesize m ~top:"s2" in
  Alcotest.(check int) "interval = max stage" (max r1.Vhls.Synth.latency r2.Vhls.Synth.latency)
    r.Vhls.Synth.interval;
  Alcotest.(check int) "latency = sum + handoff"
    (r1.Vhls.Synth.latency + r2.Vhls.Synth.latency + 2)
    r.Vhls.Synth.latency

let suite =
  ( "estimator",
    [
      Alcotest.test_case "chain critical path" `Quick test_sched_chain_latency;
      Alcotest.test_case "parallel ops overlap" `Quick test_sched_parallel_ops;
      Alcotest.test_case "memory ordering serializes" `Quick test_sched_memory_ordering;
      Alcotest.test_case "ALAP schedules late" `Quick test_alap_respects_deadline;
      Alcotest.test_case "non-pipelined loop formula" `Quick test_nonpipelined_loop_latency;
      Alcotest.test_case "pipelined loop formula" `Quick test_pipelined_loop_latency;
      Alcotest.test_case "target II respected" `Quick test_pipelined_target_ii_respected;
      Alcotest.test_case "II_dep: recurrence (Eq.4)" `Quick test_ii_dep_recurrence;
      Alcotest.test_case "II_dep: zero-trip chain" `Quick test_ii_dep_zero_trip_chain;
      Alcotest.test_case "II_dep: guard-infeasible largest delay" `Quick
        test_ii_dep_guard_infeasible_max;
      Alcotest.test_case "II_dep: bounded search = exhaustive fold" `Slow
        test_ii_dep_matches_exhaustive;
      Alcotest.test_case "II_res: port limit (Eq.3)" `Quick test_ii_res_port_limit;
      Alcotest.test_case "memory usage" `Quick test_memory_usage;
      Alcotest.test_case "partitioned memory usage" `Quick test_partitioned_memory_usage;
      Alcotest.test_case "pipelined FU sharing" `Quick test_pipelined_fu_sharing;
      Alcotest.test_case "platform budget check" `Quick test_platform_fits;
      Alcotest.test_case "estimator vs tool within 2x" `Slow test_estimator_matches_synth_on_kernels;
      Alcotest.test_case "latency monotone in trip count" `Quick test_estimates_monotone_in_trip;
      Alcotest.test_case "dataflow interval semantics" `Quick test_dataflow_interval;
    ] )
