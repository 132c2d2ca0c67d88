(* The benchmark's entry point: one workload per invocation, end-to-end metrics with
   tracing off, per-layer metrics with [--trace 1]. See README.md.

     perfbench.exe --workload dse-kernels|dnn-flow|serve-mixed --seed N
                   --seconds S --trace 0|1 --workdir DIR --serve-exe PATH

   The last line of standard output is the result:
   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
   The line before it is the run record: manifest, per-input rows,
   deterministic counters and failures. *)

module Json = Obs.Json
open Util

(* ---- Metric catalogue (must match BENCHMARK.json) -------------------------------- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("points_per_s", "points/s");
    ("job_p50_s", "s");
    ("job_tail_s", "s");
    ("warm_job_p50_s", "s");
    ("first_frontier_p50_s", "s");
    ("peak_rss_mb", "MB");
    ("qor_speedup_geomean", "x");
    ("qor_hv_geomean", "hv");
  ]

let per_layer =
  [
    ("frontend.compile_s", "s");
    ("frontend.ops_out", "count");
    ("dse.points", "count");
    ("dse.evals", "count");
    ("dse.eval_hit_rate", "fraction");
    ("dse.evaluate_p50_s", "s");
    ("dse.evaluate_tail_s", "s");
    ("dse.commit_stall_s", "s");
    ("stage.transform_s", "s");
    ("stage.unroll_s", "s");
    ("stage.cleanup_s", "s");
    ("stage.partition_s", "s");
    ("stage.estimate_s", "s");
  ]
  @ List.concat_map
      (fun p -> [ (Printf.sprintf "pass.%s_s" p, "s"); (Printf.sprintf "pass.%s.runs" p, "count") ])
      Attrib.passes
  @ [
      ("unroll.symbolic_points", "count");
      ("unroll.fallback_points", "count");
      ("estimator.bands_rescheduled", "count");
      ("estimator.band_hit_rate", "fraction");
      ("transform.memo_hit_rate", "fraction");
      ("parpool.busy_fraction_min", "fraction");
      ("parpool.idle_fraction", "fraction");
      ("dnn.flow_s", "s");
      ("dnn.flow_other_s", "s");
      ("vhls.synth_s", "s");
      ("emit.cpp_s", "s");
      ("emit.bytes", "bytes");
      ("serve.queue_wait_p50_s", "s");
      ("serve.queue_wait_tail_s", "s");
      ("serve.overhead_s", "s");
      ("serve.rtt_p50_s", "s");
      ("serve.store_hit_rate", "fraction");
      ("serve.warm_share", "fraction");
      ("serve.checkpoint_s", "s");
      ("serve.store_load_s", "s");
      ("gc.minor_words_per_point", "words/point");
      ("gc.promoted_words", "words");
      ("gc.major_collections", "count");
      ("remainder_s", "s");
      ("trace.overhead_ratio", "ratio");
    ]

(* Order [measured] by a catalogue; a layer the workload leaves idle reads 0.
   A name outside the catalogue is a benchmark bug. *)
let select catalogue measured =
  List.iter
    (fun (m : metric) ->
      if not (List.mem_assoc m.name catalogue) then failwith ("metric not in catalogue: " ^ m.name))
    measured;
  List.map
    (fun (name, unit_) ->
      match List.find_opt (fun (m : metric) -> m.name = name) measured with
      | Some mm -> { mm with unit_ }
      | None -> Util.m name unit_ 0.)
    catalogue

(* ---- What one workload run returns --------------------------------------------- *)

type outcome = {
  metrics : metric list;
  attempted : int;
  failures : string list;
  rows : Json.t list;  (** per-input rows *)
  counters : (string * float) list;  (** deterministic work counts *)
  calib : float list;  (** calibration-kernel times taken through the run *)
  drifting : string list;
      (** counters reported when they differ from an earlier run but not
          counted as failures (see README.md) *)
  config : Json.t;
  extra : (string * Json.t) list;
}

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  workdir : string;
  serve_exe : string;
  calib_exe : string;
  self_exe : string;
  manifest : (string * Json.t) list;
}

(* Spawn [exe args] with output discarded; wall seconds to its exit and
   its exit status. *)
let time_process exe args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let t0 = now () in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close null) (fun () ->
        Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin null null)
  in
  let _, st = Unix.waitpid [] pid in
  (since t0, st = Unix.WEXITED 0)

(* Invocation counts of the reported passes in a traced run (none untraced). *)
let pass_runs spans =
  if spans = [] then []
  else
    let tbl = Attrib.aggregate spans in
    List.map
      (fun p -> (Printf.sprintf "pass.%s.runs" p, float_of_int (Attrib.get tbl ("pass:" ^ p)).Attrib.runs))
      Attrib.passes

(* ---- Samples spread over the run ------------------------------------------------------ *)

(* The host's speed drifts over seconds to minutes (on a 2-vCPU VM, a
   fixed CPU loop of 0.3 s varied by up to 1.7x between neighbouring
   samples), so a quantity sampled in one burst reads whatever the host did
   during that burst. The untraced in-process workloads therefore take
   their set-up, warm and calibration samples in small batches after every
   timed job, and report medians over the whole run. *)

(* The samples taken after each timed job of an untraced pass: set-up
   times, each a fresh process that initialises the libraries, prepares the
   workload's inputs and exits, and calibration-kernel times. *)
let probes_per_job = 20
let calib_per_job = 3

let slot o =
  let setup =
    List.init probes_per_job (fun _ ->
        let s, ok = time_process o.self_exe [ "--probe"; o.workload ] in
        if not ok then failwith "setup probe failed";
        s)
  in
  (setup, calibrate ~exe:o.calib_exe calib_per_job)

(* ---- dse-kernels ------------------------------------------------------------------ *)

(* Every untraced dse-kernels run times the job list at least twice: per-job
   latencies are the median over passes, so the per-job metrics rest on
   more than one sample of each job. *)
let min_passes = 2

(* Warm replays after each cold job of an untraced pass. *)
let warm_per_job = 12

(* What a pass keeps of each job once the next pass starts. *)
type timing = {
  t_wall : float;
  t_first : float;
  t_work : int * int * int * int * int;
  t_warm : float list;
  t_setup : float list;
  t_calib : float list;
}

let work_of (j : Kernels.job) =
  let r = j.Kernels.result in
  let st = r.Scalehls.Dse.stats in
  ( r.Scalehls.Dse.explored,
    st.Scalehls.Dse.cache_misses,
    st.Scalehls.Dse.est_memo_misses,
    st.Scalehls.Dse.symbolic_points,
    st.Scalehls.Dse.fallback_points )

let add_gc (a : gc_delta) (b : gc_delta) =
  {
    minor_words = a.minor_words +. b.minor_words;
    promoted_words = a.promoted_words +. b.promoted_words;
    major_collections = a.major_collections + b.major_collections;
  }

let job_name (j : Kernels.job) = Printf.sprintf "%s-%d" (Models.Polybench.name j.Kernels.kernel) j.Kernels.size

let dse_kernels o =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  (* A warm replay must reproduce the cold search. *)
  let check_warm (j : Kernels.job) (wr : Scalehls.Dse.result) =
    if Kernels.frontier_sig wr <> Kernels.frontier_sig j.Kernels.result
       || wr.Scalehls.Dse.explored <> j.Kernels.result.Scalehls.Dse.explored
    then fail "%s: warm replay frontier differs from the cold run" (job_name j)
  in
  (* One pass over the job list. Untraced passes follow each job with its
     warm replays, set-up probes and calibration samples (outside the job's
     wall). Each pass
     starts from a collected heap, so no pass pays for the garbage of the
     one before. *)
  let pass ~spread =
    Gc.full_major ();
    let out =
      List.map
        (fun input ->
          let j, gc = with_gc (fun () -> Kernels.run_job input) in
          let warm, (setup, calib) =
            if spread then begin
              let wr, ws = Kernels.warm_replay ~reps:warm_per_job j in
              check_warm j wr;
              (ws, slot o)
            end
            else ([], ([], []))
          in
          ( j,
            gc,
            {
              t_wall = j.Kernels.wall;
              t_first = j.Kernels.first_frontier;
              t_work = work_of j;
              t_warm = warm;
              t_setup = setup;
              t_calib = calib;
            } ))
        Kernels.inputs
    in
    let jobs = List.map (fun (j, _, _) -> j) out in
    let gc = List.fold_left (fun a (_, g, _) -> add_gc a g) { minor_words = 0.; promoted_words = 0.; major_collections = 0 } out in
    let ts = List.map (fun (_, _, t) -> t) out in
    (jobs, gc, ts, sum (List.map (fun t -> t.t_wall) ts))
  in
  (* Traced runs first measure the same pass untraced, for the overhead
     ratio; the per-layer numbers come from the traced pass. *)
  let untraced_wall = if o.trace then Some (let _, _, _, w = pass ~spread:false in w) else None in
  if o.trace then (Obs.Trace.reset (); Obs.Trace.enable ());
  let t_loop = now () in
  (* Untraced runs make [min_passes] passes and repeat the job list until
     --seconds have passed; a traced run attributes exactly one pass. Only
     the last pass is kept whole (for the checks); earlier ones keep their
     timings, so the peak memory is one pass's. *)
  let rec passes acc =
    let jobs, gc, ts, w = pass ~spread:(not o.trace) in
    let acc = (ts, w) :: acc in
    if o.trace || (List.length acc >= min_passes && since t_loop >= o.seconds) then ((jobs, gc, w), List.rev acc)
    else passes acc
  in
  let (jobs, gc, wall), timings = passes [] in
  if o.trace then begin
    Obs.Trace.disable ();
    (* The traced pass makes no replays of its own; one per job checks warm
       equivalence. *)
    List.iter (fun j -> check_warm j (fst (Kernels.warm_replay ~reps:1 j))) jobs
  end;
  let spans = if o.trace then Attrib.of_events (Obs.Trace.events ()) else [] in
  let wall_med = median (List.map snd timings) in
  let per_job f = List.mapi (fun i _ -> f (List.concat_map (fun (ts, _) -> [ List.nth ts i ]) timings)) jobs in
  let explored = List.fold_left (fun a (j : Kernels.job) -> a + j.Kernels.result.Scalehls.Dse.explored) 0 jobs in
  let warm_s = per_job (fun ts -> median (List.concat_map (fun t -> t.t_warm) ts)) in
  let setup = median (List.concat_map (fun (ts, _) -> List.concat_map (fun t -> t.t_setup) ts) timings) in
  (* Output checks, outside the timed loop. *)
  let synth_s = ref 0. in
  let job_walls = per_job (fun ts -> median (List.map (fun t -> t.t_wall) ts)) in
  let rows =
    List.map2
      (fun ((j : Kernels.job), w) ws ->
        let name = job_name j in
        let top = Models.Polybench.name j.Kernels.kernel in
        let r = j.Kernels.result in
        let check = Kernels.check_emitted ~workdir:o.workdir ~seed:o.seed j in
        (match check with Error e -> fail "%s: %s" name e | Ok _ -> ());
        let t0 = now () in
        let base = Vhls.Synth.synthesize j.Kernels.source_module ~top in
        let opt = Vhls.Synth.synthesize r.Scalehls.Dse.module_ ~top in
        synth_s := !synth_s +. since t0;
        let speedup = float_of_int base.Vhls.Synth.latency /. float_of_int (max 1 opt.Vhls.Synth.latency) in
        let hv =
          Scalehls.Dse.log_hypervolume ~ref_latency:(2 * base.Vhls.Synth.latency)
            ~ref_area:Kernels.platform.Vhls.Platform.dsp r.Scalehls.Dse.pareto
        in
        let st = r.Scalehls.Dse.stats in
        ( (speedup, hv),
          Json.Obj
            [
              ("input", Json.String name);
              ("wall_s", Json.Float w);
              ("first_frontier_s", Json.Float j.Kernels.first_frontier);
              ("warm_s", if o.trace then Json.Null else Json.Float ws);
              ("points", Json.Int r.Scalehls.Dse.explored);
              ("evals", Json.Int st.Scalehls.Dse.cache_misses);
              ("frontier", Json.Int (List.length r.Scalehls.Dse.pareto));
              ("qor_speedup", Json.Float speedup);
              ("hv", Json.Float hv);
              ("check_max_rel_diff", match check with Ok d -> Json.Float d | Error _ -> Json.Null);
            ] ))
      (List.combine jobs job_walls) warm_s
  in
  let qor = List.map fst rows and rows = List.map snd rows in
  let stats = List.map (fun (j : Kernels.job) -> j.Kernels.result.Scalehls.Dse.stats) jobs in
  let sumi f = float_of_int (List.fold_left (fun a s -> a + f s) 0 stats) in
  let evals = sumi (fun s -> s.Scalehls.Dse.cache_misses) in
  let hits = sumi (fun s -> s.Scalehls.Dse.cache_hits) in
  let stage name = sum (List.map (fun s -> Option.value ~default:0. (List.assoc_opt name s.Scalehls.Dse.stage_seconds)) stats) in
  let ratio a b = if a +. b = 0. then 0. else a /. (a +. b) in
  let counters =
    [
      ("dse.points", float_of_int explored);
      ("dse.evals", evals);
      ("estimator.bands_rescheduled", sumi (fun s -> s.Scalehls.Dse.est_memo_misses));
      ("unroll.symbolic_points", sumi (fun s -> s.Scalehls.Dse.symbolic_points));
      ("unroll.fallback_points", sumi (fun s -> s.Scalehls.Dse.fallback_points));
      ("gc.minor_words_per_point", gc.minor_words /. float_of_int (max 1 explored));
    ]
  in
  let tail_p, tail_v = tail job_walls in
  (* Every pass must do the same work. *)
  List.iter
    (fun (ts, _) ->
      List.iter2
        (fun (j : Kernels.job) t -> if work_of j <> t.t_work then fail "%s: a repeated pass did different work" (job_name j))
        jobs ts)
    timings;
  let e2e =
    [
      m "setup_s" "s" setup;
      m "wall_s" "s" wall_med;
      m "points_per_s" "points/s" (float_of_int explored /. wall_med);
      m "job_p50_s" "s" (median job_walls);
      m "job_tail_s" "s" tail_v;
      (* median over kernels of each kernel's median warm replay *)
      m "warm_job_p50_s" "s" (median warm_s);
      m "first_frontier_p50_s" "s" (median (per_job (fun ts -> median (List.map (fun t -> t.t_first) ts))));
      m "peak_rss_mb" "MB" (peak_rss_mb ());
      m "qor_speedup_geomean" "x" (geomean (List.map fst qor));
      m "qor_hv_geomean" "hv" (geomean (List.map snd qor));
    ]
  in
  let layers =
    if not o.trace then []
    else
      let tbl = Attrib.aggregate spans in
      let evaluate = (Attrib.get tbl "dse.evaluate").Attrib.durs in
      let ev_tail = snd (tail evaluate) in
      let busy = List.concat_map (fun s -> List.map snd s.Scalehls.Dse.worker_busy) stats in
      [
        m "frontend.compile_s" "s" (sum (List.map (fun (j : Kernels.job) -> j.Kernels.frontend_s) jobs));
        m "frontend.ops_out" "count" (float_of_int (List.fold_left (fun a (j : Kernels.job) -> a + j.Kernels.ops_out) 0 jobs));
        m "dse.eval_hit_rate" "fraction" (ratio hits evals);
        m "dse.evaluate_p50_s" "s" (median evaluate);
        m "dse.evaluate_tail_s" "s" ev_tail;
        m "dse.commit_stall_s" "s" (Attrib.get tbl "dse.commit_stall").Attrib.total_s;
        m "stage.transform_s" "s" (stage "transform");
        m "stage.unroll_s" "s" (stage "unroll");
        m "stage.cleanup_s" "s" (stage "cleanup");
        m "stage.partition_s" "s" (stage "partition");
        m "stage.estimate_s" "s" (stage "estimate");
        m "estimator.band_hit_rate" "fraction"
          (ratio (sumi (fun s -> s.Scalehls.Dse.est_memo_hits)) (sumi (fun s -> s.Scalehls.Dse.est_memo_misses)));
        m "transform.memo_hit_rate" "fraction"
          (ratio (sumi (fun s -> s.Scalehls.Dse.tf_hits)) (sumi (fun s -> s.Scalehls.Dse.tf_misses)));
        m "parpool.busy_fraction_min" "fraction" (List.fold_left Float.min 1. busy);
        m "parpool.idle_fraction" "fraction" (1. -. (sum busy /. float_of_int (max 1 (List.length busy))));
        m "vhls.synth_s" "s" !synth_s;
        m "emit.cpp_s" "s" (sum (List.map (fun (j : Kernels.job) -> j.Kernels.emit_s) jobs));
        m "emit.bytes" "bytes" (float_of_int (List.fold_left (fun a (j : Kernels.job) -> a + String.length j.Kernels.cpp) 0 jobs));
        m "gc.promoted_words" "words" gc.promoted_words;
        m "gc.major_collections" "count" (float_of_int gc.major_collections);
        m "remainder_s" "s" (wall -. Attrib.attributed ~roots:[ "bench.job" ] tbl);
        m "trace.overhead_ratio" "ratio" (wall /. Option.value ~default:wall untraced_wall);
      ]
      @ Attrib.pass_metrics tbl
      @ List.map (fun (k, v) -> m k "count" v) counters
  in
  {
    metrics = (if o.trace then layers else e2e);
    attempted = List.length jobs * 2;
    failures = List.rev !failures;
    rows;
    counters = counters @ pass_runs spans;
    calib = List.concat_map (fun (ts, _) -> List.concat_map (fun t -> t.t_calib) ts) timings;
    (* Dse.run's minor-heap allocation is not exactly repeatable:
       Obs.Metrics.observe boxes a new float whenever an evaluation time sets
       a new histogram min or max, so a few tens of words depend on timing. *)
    drifting = [ "gc.minor_words_per_point" ];
    config = Kernels.config_json;
    extra =
      [
        ("setup_samples", Json.Int (List.length (List.concat_map (fun (ts, _) -> List.concat_map (fun t -> t.t_setup) ts) timings)));
        ("passes", Json.Int (List.length timings));
        ("job_tail_percentile", Json.Int tail_p);
        ("job_samples", Json.Int (List.length job_walls));
      ];
  }

(* ---- dnn-flow ------------------------------------------------------------------------ *)

(* Re-syntheses of the model's G7+L7+D design after each job of an
   untraced pass. *)
let resynth_per_job = 3

let dnn_flow o =
  let built = Dnn.build_models () in
  (* One pass: every model at every config. Untraced passes follow each job
     with re-syntheses of the model's first (G7+L7+D) design and set-up
     probes, outside the job's wall. *)
  let pass ~spread =
    let gc = ref { minor_words = 0.; promoted_words = 0.; major_collections = 0 } in
    let out =
      List.map
        (fun model ->
          let first = ref None in
          List.map
            (fun config ->
              let j, g = with_gc (fun () -> Dnn.run_job model config) in
              gc := add_gc !gc g;
              if !first = None then first := Some j;
              let warm, setup =
                if spread then (List.init resynth_per_job (fun _ -> Dnn.resynth (Option.get !first)), slot o)
                else ([], ([], []))
              in
              (j, warm, setup))
            Dnn.configs)
        built
    in
    let per_model = List.map (List.map (fun (j, _, _) -> j)) out in
    let flat = List.concat out in
    ( per_model,
      !gc,
      sum (List.map (fun ((j : Dnn.job), _, _) -> j.Dnn.wall) flat),
      List.map (List.concat_map (fun (_, w, _) -> w)) out,
      List.concat_map (fun (_, _, (s, _)) -> s) flat,
      List.concat_map (fun (_, _, (_, c)) -> c) flat )
  in
  let untraced_wall = if o.trace then Some (let _, _, w, _, _, _ = pass ~spread:false in w) else None in
  if o.trace then (Obs.Trace.reset (); Obs.Trace.enable ());
  let t_loop = now () in
  let first = pass ~spread:(not o.trace) in
  let rest =
    let rec more acc = if o.trace || since t_loop >= o.seconds then List.rev acc else more (pass ~spread:true :: acc) in
    more []
  in
  if o.trace then Obs.Trace.disable ();
  let spans = if o.trace then Attrib.of_events (Obs.Trace.events ()) else [] in
  let per_model, gc, wall, _, _, _ = first in
  let passes = first :: rest in
  let wall_med = median (List.map (fun (_, _, w, _, _, _) -> w) passes) in
  let jobs = List.concat per_model in
  let all_jobs = List.concat_map (fun (pm, _, _, _, _, _) -> List.concat pm) passes in
  let failures = ref [] in
  List.iter
    (fun (j : Dnn.job) ->
      match Mir.Verify.verify j.Dnn.output with
      | Ok () -> ()
      | Error errs ->
          failures :=
            Printf.sprintf "%s %s: output fails Verify.verify (%d errors, first: %s)" j.Dnn.model j.Dnn.config
              (List.length errs) (Fmt.str "%a" Mir.Verify.pp_error (List.hd errs))
            :: !failures)
    jobs;
  (* Per model, the median re-synthesis over every pass. *)
  let warm =
    List.mapi (fun i _ -> median (List.concat_map (fun (_, _, _, ws, _, _) -> List.nth ws i) passes)) Dnn.models
  in
  let setup_samples = List.concat_map (fun (_, _, _, _, s, _) -> s) passes in
  let speedups =
    List.concat_map
      (fun model_jobs ->
        let base = (List.find (fun (j : Dnn.job) -> j.Dnn.config = "baseline") model_jobs).Dnn.report.Vhls.Synth.interval in
        List.filter_map
          (fun (j : Dnn.job) ->
            if j.Dnn.config = "baseline" then None
            else Some (float_of_int base /. float_of_int (max 1 j.Dnn.report.Vhls.Synth.interval)))
          model_jobs)
      per_model
  in
  let hvs = List.map Dnn.hv_of_model per_model in
  let rows =
    List.map
      (fun (j : Dnn.job) ->
        let base = (List.find (fun (b : Dnn.job) -> b.Dnn.model = j.Dnn.model && b.Dnn.config = "baseline") jobs).Dnn.report in
        let r = j.Dnn.report in
        Json.Obj
          [
            ("input", Json.String (j.Dnn.model ^ "/" ^ j.Dnn.config));
            ("wall_s", Json.Float j.Dnn.wall);
            ("flow_s", Json.Float j.Dnn.flow_s);
            ("synth_s", Json.Float j.Dnn.synth_s);
            ("interval", Json.Int r.Vhls.Synth.interval);
            ("latency", Json.Int r.Vhls.Synth.latency);
            ("dsp", Json.Int r.Vhls.Synth.usage.Vhls.Platform.u_dsp);
            ("ops_out", Json.Int (Kernels.count_ops j.Dnn.output));
            ("qor_speedup", Json.Float (float_of_int base.Vhls.Synth.interval /. float_of_int (max 1 r.Vhls.Synth.interval)));
          ])
      jobs
    @ List.map2
        (fun ((name, _), hv) w ->
          Json.Obj [ ("input", Json.String name); ("hv", Json.Float hv); ("resynth_s", if o.trace then Json.Null else Json.Float w) ])
        (List.combine Dnn.models hvs) warm
  in
  let counters =
    [
      ("dnn.ops_out", float_of_int (List.fold_left (fun a (j : Dnn.job) -> a + Kernels.count_ops j.Dnn.output) 0 jobs));
      ("gc.minor_words_per_point", gc.minor_words /. float_of_int (List.length jobs));
    ]
  in
  let job_walls = List.map (fun (j : Dnn.job) -> j.Dnn.wall) all_jobs in
  let tail_p, tail_v = tail job_walls in
  let first_config = fst (List.hd Dnn.configs) in
  (* The nine jobs fall in three clusters of cost (baseline ~0.02 s, G7+L7+D
     ~1 s, G1+L7+D ~4 s), so the median of their single samples is one
     G7+L7+D job and swung 33% from run to run. Geometric means use every
     job. *)
  let e2e =
    [
      m "setup_s" "s" (median setup_samples);
      m "wall_s" "s" wall_med;
      m "points_per_s" "points/s" (float_of_int (List.length jobs) /. wall_med);
      m "job_p50_s" "s" (geomean job_walls);
      m "job_tail_s" "s" tail_v;
      m "warm_job_p50_s" "s" (geomean warm);
      m "first_frontier_p50_s" "s"
        (geomean (List.filter_map (fun (j : Dnn.job) -> if j.Dnn.config = first_config then Some j.Dnn.wall else None) all_jobs));
      m "peak_rss_mb" "MB" (peak_rss_mb ());
      m "qor_speedup_geomean" "x" (geomean speedups);
      m "qor_hv_geomean" "hv" (geomean hvs);
    ]
  in
  let layers =
    if not o.trace then []
    else
      let tbl = Attrib.aggregate spans in
      let flow = (Attrib.get tbl "bench.dnn_flow").Attrib.total_s in
      let pass_total = Hashtbl.fold (fun name (a : Attrib.agg) acc -> if String.starts_with ~prefix:"pass:" name then acc +. a.Attrib.self_s else acc) tbl 0. in
      [
        m "dnn.flow_s" "s" flow;
        m "dnn.flow_other_s" "s" (flow -. pass_total);
        m "vhls.synth_s" "s" (Attrib.get tbl "bench.synth").Attrib.total_s;
        m "gc.promoted_words" "words" gc.promoted_words;
        m "gc.major_collections" "count" (float_of_int gc.major_collections);
        m "remainder_s" "s" (wall -. Attrib.attributed ~roots:[ "bench.job" ] tbl);
        m "trace.overhead_ratio" "ratio" (wall /. Option.value ~default:wall untraced_wall);
        m "gc.minor_words_per_point" "words/point" (List.assoc "gc.minor_words_per_point" counters);
      ]
      @ Attrib.pass_metrics tbl
  in
  {
    metrics = (if o.trace then layers else e2e);
    attempted = List.length jobs;
    failures = List.rev !failures;
    rows;
    counters = counters @ pass_runs spans;
    calib = List.concat_map (fun (_, _, _, _, _, c) -> c) passes;
    drifting = [];
    config = Dnn.config_json;
    extra =
      [
        ("setup_samples", Json.Int (List.length setup_samples));
        ("passes", Json.Int (List.length passes));
        ("job_tail_percentile", Json.Int tail_p);
        ("job_samples", Json.Int (List.length job_walls));
      ];
  }

(* ---- serve-mixed ----------------------------------------------------------------------- *)

module S = Serve_mixed

(* Daemon spawns, with the pre-filled store and without any, before each
   round and after the last. *)
let spawns_per_slot = 3

(* Untraced runs repeat the traffic at least [min_reps] times. A cold
   search that shares the worker with a longer one finishes anywhere from
   alone-fast to twice as slow, depending on which search's points the
   pool takes first: the light cold designs' latencies varied up to 6x
   between runs. *)
let min_reps = 4

(* What one repetition of the traffic leaves. *)
type serve_rep = {
  outs : S.outcome list;
  wall : float;
  scrape : string;  (** the daemon's Prometheus exposition at the end *)
  rss : float;
  spans : Attrib.span list;
  store_setup : float list;
  empty_setup : float list;
  totals : (string * int) list;  (** the store's counters at the end *)
  calib_s : float list;
}

let source_digest o = match List.assoc_opt "source_digest" o.manifest with Some (Json.String d) -> Some d | _ -> None

let serve_mixed o =
  let dir = Filename.concat o.workdir "serve" in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  let exe = o.serve_exe in
  (* The pre-filled store, the prefill's frontiers and the in-process
     references depend only on the source tree, so they are kept per source
     digest and made by the first run of a tree. *)
  let digest = source_digest o in
  let keep name = Filename.concat dir (Option.value ~default:"unkeyed" digest ^ "-" ^ name) in
  let keyed = digest <> None in
  let store = Filename.concat dir "store.jsonl" and pristine = keep "store.prefilled" in
  let prefill_file = keep "prefill.json" and reference_file = keep "reference.json" in
  let prefilled, ran_prefill =
    match read_table prefill_file with
    | kvs when keyed && kvs <> [] && Sys.file_exists pristine ->
        (List.map (fun d -> (d, match List.assoc_opt (S.label d) kvs with Some (Json.String p) -> p | _ -> "")) S.warm_designs, 0)
    | _ ->
        if Sys.file_exists store then Sys.remove store;
        let outs = S.prefill ~exe ~workdir:dir ~store S.warm_designs in
        copy_file store pristine;
        let prefilled = List.map (fun (s : S.search_out) -> (s.S.design, s.S.pareto)) outs in
        write_table prefill_file (List.map (fun (d, p) -> (S.label d, Json.String p)) prefilled);
        (prefilled, List.length outs)
  in
  let references = Hashtbl.create 32 in
  if keyed then
    List.iter
      (fun (k, v) -> Option.iter (Hashtbl.replace references k) (S.reference_of_json v))
      (read_table reference_file);
  let reference d =
    match Hashtbl.find_opt references (S.label d) with
    | Some r -> r
    | None ->
        let r = S.local_search d in
        Hashtbl.replace references (S.label d) r;
        r
  in
  (* Setup: spawn to first answered ping, with a copy of the pre-filled
     store and (for the store's load share) without any store. *)
  let setup_store = Filename.concat dir "setup-store.jsonl" in
  let spawn_times ?store n =
    List.init n (fun _ ->
        Option.iter (fun s -> copy_file pristine s) store;
        let d, s = S.start ~exe ~workdir:dir ?store ~tag:"setup" () in
        (* killed, not shut down: a graceful exit waits out the daemon's
           0.25 s poll interval, and the store is a throwaway copy *)
        S.kill d;
        s)
  in
  (* One repetition of the traffic against a fresh daemon on the pre-filled
     store, with a set-up slot before each round and after the last. *)
  let phases = S.plan ~seed:o.seed in
  let run ~trace =
    copy_file pristine store;
    let trace_file = if trace then Some (Filename.concat dir "daemon-trace.json") else None in
    let d, _ = S.start ~exe ~workdir:dir ~store ?trace:trace_file ~tag:"traffic" () in
    Fun.protect ~finally:(fun () -> S.kill d) (fun () ->
        let with_store = ref [] and empty = ref [] and calib = ref [] in
        let slot () =
          with_store := !with_store @ spawn_times ~store:setup_store spawns_per_slot;
          empty := !empty @ spawn_times spawns_per_slot;
          calib := !calib @ calibrate ~exe:o.calib_exe calib_per_job
        in
        let outs, wall =
          List.fold_left
            (fun (outs, wall) (i, scripts) ->
              if i mod 2 = 0 then slot ();
              let o, w = S.traffic d.S.socket scripts in
              (outs @ o, wall +. w))
            ([], 0.)
            (List.mapi (fun i p -> (i, p)) phases)
        in
        slot ();
        (* The daemon's Prometheus scrape and its store's totals. *)
        let scrape, store_totals =
          match S.connect d.S.socket with
          | c ->
              Fun.protect ~finally:(fun () -> S.close c) (fun () ->
                  let scrape =
                    match snd (S.simple c Serve.Protocol.metrics_request "metrics") with
                    | j -> (match Json.member "prometheus" j with Some (Json.String b) -> b | _ -> "")
                    | exception _ -> ""
                  in
                  let totals =
                    match Option.bind (Json.member "store" (snd (S.simple c Serve.Protocol.status_request "status"))) (function Json.Obj kvs -> Some kvs | _ -> None) with
                    | Some kvs -> List.filter_map (fun (k, v) -> match v with Json.Int n -> Some (k, n) | _ -> None) kvs
                    | None -> []
                    | exception _ -> []
                  in
                  (scrape, totals))
          | exception _ -> ("", [])
        in
        let rss = peak_rss_mb ~pid:(string_of_int d.S.pid) () in
        S.shutdown d;
        let spans =
          match trace_file with
          | Some f when Sys.file_exists f -> (
              match Json.of_string (read_file f) with Ok j -> Attrib.of_chrome j | Error _ -> [])
          | _ -> []
        in
        { outs; wall; scrape; rss; spans; store_setup = !with_store; empty_setup = !empty; totals = store_totals; calib_s = !calib })
  in
  let untraced = if o.trace then Some (run ~trace:false) else None in
  let t_loop = now () in
  let rec repeat acc =
    let acc = run ~trace:o.trace :: acc in
    if o.trace || (List.length acc >= min_reps && since t_loop >= o.seconds) then List.rev acc else repeat acc
  in
  let reps = repeat [] in
  let last = List.nth reps (List.length reps - 1) in
  let outs = List.concat_map (fun r -> r.outs) reps and wall = median (List.map (fun r -> r.wall) reps) in
  let scrape = last.scrape and spans = last.spans and store_totals = last.totals in
  let store_setup = List.concat_map (fun r -> r.store_setup) reps
  and empty_setup = List.concat_map (fun r -> r.empty_setup) reps in
  (* Output checks: remote == local, warm == cold. *)
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let searches = List.filter_map (function S.Searched s -> Some s | _ -> None) outs in
  List.iter (function S.Failed e -> fail "%s" e | _ -> ()) outs;
  if List.exists (fun r -> r.totals <> store_totals) reps then fail "a repeated traffic left different store counters";
  List.iter
    (fun (d, pareto) ->
      if pareto <> (reference d).S.pareto then fail "%s: prefill frontier differs from the in-process run" (S.label d))
    prefilled;
  List.iter
    (fun (s : S.search_out) ->
      if s.S.pareto <> (reference s.S.design).S.pareto then
        fail "%s: remote frontier differs from the in-process run" (S.label s.S.design);
      match List.assoc_opt s.S.design prefilled with
      | Some p when p <> s.S.pareto -> fail "%s: warm replay differs from the cold search" (S.label s.S.design)
      | _ -> ())
    searches;
  if keyed then write_table reference_file (Hashtbl.fold (fun k r acc -> (k, S.reference_to_json r) :: acc) references [] |> List.sort compare);
  (* Warm: the design was pre-filled, so the store holds the whole search. *)
  let is_warm (s : S.search_out) = List.mem s.S.design S.warm_designs in
  let cold = List.filter (fun s -> not (is_warm s)) searches in
  let mix = S.warm_designs @ S.cold_designs in
  let qor = List.map (fun d -> let r = reference d in (float_of_int r.S.base /. float_of_int (max 1 r.S.best), r.S.hv)) mix in
  let lat = List.map (fun (s : S.search_out) -> s.S.latency) searches in
  let cold_lat = List.map (fun (s : S.search_out) -> s.S.latency) cold in
  let tail_p, tail_v = tail cold_lat in
  let explored = List.fold_left (fun a (s : S.search_out) -> a + s.S.explored) 0 searches / List.length reps in
  (* Evaluation hits and misses from the store's totals at the end of the
     run. A search's own [stats.cache_misses] is the change in the shared
     store's counter while it ran, so it also counts the evaluations of
     any search that overlapped it. *)
  let store_total k = Option.value ~default:0 (List.assoc_opt k store_totals) in
  let hits = store_total "eval_hits" and misses = store_total "eval_misses" in
  let cheap k = List.filter_map (function S.Cheap (r, t) when List.mem r k -> Some t | _ -> None) outs in
  let latency_of d = median (List.filter_map (fun (s : S.search_out) -> if s.S.design = d then Some s.S.latency else None) searches) in
  let e2e =
    [
      m "setup_s" "s" (median store_setup);
      m "wall_s" "s" wall;
      m "points_per_s" "points/s" (float_of_int explored /. wall);
      (* Geometric means, not medians: the twelve cold designs' latencies
         form clusters, and with the host steady the median of all cold
         searches jumped between clusters (18% over ten seeds). *)
      m "job_p50_s" "s" (geomean cold_lat);
      m "job_tail_s" "s" tail_v;
      (* median over the warm designs of each design's median latency: the
         warm designs differ in cost, so a plain median would rest on the
         one or two samples at the boundary between two designs *)
      m "warm_job_p50_s" "s" (median (List.map latency_of S.warm_designs));
      m "first_frontier_p50_s" "s" (geomean (List.map (fun (s : S.search_out) -> s.S.first_frontier) cold));
      m "peak_rss_mb" "MB" (List.fold_left (fun a r -> Float.max a r.rss) 0. reps);
      m "qor_speedup_geomean" "x" (geomean (List.map fst qor));
      m "qor_hv_geomean" "hv" (geomean (List.map snd qor));
    ]
  in
  let counters =
    [
      ("dse.points", float_of_int explored);
      ("dse.evals", float_of_int misses);
      ("dse.cache_hits", float_of_int hits);
      ("store.evals", float_of_int (store_total "evals"));
      ("store.bands", float_of_int (store_total "bands"));
    ]
  in
  let layers =
    if not o.trace then []
    else
      let tbl = Attrib.aggregate spans in
      let prom name = S.prom_values scrape name |> List.map snd in
      let q name qq = Option.value ~default:0. (S.prom_quantile scrape name qq) in
      let busy = prom "scalehls_serve_worker_busy_fraction" in
      let stage st = sum (prom ("scalehls_dse_stage_seconds_" ^ st)) in
      let evaluate = (Attrib.get tbl "dse.evaluate").Attrib.durs in
      let daemon_walls = sum (List.map (fun (s : S.search_out) -> s.S.daemon_wall) searches) in
      [
        m "dse.points" "count" (float_of_int explored);
        m "dse.evals" "count" (float_of_int misses);
        m "dse.eval_hit_rate" "fraction" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
        m "dse.evaluate_p50_s" "s" (median evaluate);
        m "dse.evaluate_tail_s" "s" (snd (tail evaluate));
        m "dse.commit_stall_s" "s" (Attrib.get tbl "dse.commit_stall").Attrib.total_s;
        m "stage.transform_s" "s" (stage "transform");
        m "stage.unroll_s" "s" (stage "unroll");
        m "stage.cleanup_s" "s" (stage "cleanup");
        m "stage.partition_s" "s" (stage "partition");
        m "stage.estimate_s" "s" (stage "estimate");
        m "parpool.busy_fraction_min" "fraction" (List.fold_left Float.min 1. busy);
        m "parpool.idle_fraction" "fraction" (1. -. (sum busy /. float_of_int (max 1 (List.length busy))));
        m "serve.queue_wait_p50_s" "s" (q "scalehls_serve_turn_wait_seconds" "p50");
        m "serve.queue_wait_tail_s" "s" (q "scalehls_serve_turn_wait_seconds" "p99");
        m "serve.overhead_s" "s" (median (List.map (fun (s : S.search_out) -> s.S.latency -. s.S.daemon_wall) searches));
        m "serve.rtt_p50_s" "s" (median (cheap [ S.Status; S.Metrics ]));
        m "serve.store_hit_rate" "fraction" (float_of_int hits /. float_of_int (max 1 (hits + misses)));
        m "serve.warm_share" "fraction" (float_of_int (List.length (List.filter is_warm searches)) /. float_of_int (max 1 (List.length searches)));
        m "serve.checkpoint_s" "s" (median (cheap [ S.Checkpoint ]));
        m "serve.store_load_s" "s" (median store_setup -. median empty_setup);
        m "remainder_s" "s" (sum lat -. daemon_walls);
        m "trace.overhead_ratio" "ratio"
          (match untraced with Some u -> wall /. u.wall | None -> 1.);
      ]
      @ Attrib.pass_metrics tbl
  in
  {
    metrics = (if o.trace then layers else e2e);
    attempted = List.length outs + ran_prefill;
    failures = List.rev !failures;
    rows =
      List.map
        (fun d ->
          let r = reference d in
          let mine = List.filter (fun (s : S.search_out) -> s.S.design = d) searches in
          Json.Obj
            [
              ("input", Json.String (S.label d));
              ("warm", Json.Bool (List.mem d S.warm_designs));
              ("searches", Json.Int (List.length mine));
              ("latency_p50_s", Json.Float (latency_of d));
              ("points", Json.Int (match mine with s :: _ -> s.S.explored | [] -> 0));
              (* as the daemon reports it, per search; see [hits] above *)
              ("evals", Json.Int (match mine with s :: _ -> s.S.misses | [] -> 0));
              ("qor_speedup", Json.Float (float_of_int r.S.base /. float_of_int (max 1 r.S.best)));
              ("hv", Json.Float r.S.hv);
            ])
        mix;
    counters;
    calib = List.concat_map (fun r -> r.calib_s) reps;
    drifting = [];
    config = S.config_json;
    extra =
      [
        ("repetitions", Json.Int (List.length reps));
        ("searches", Json.Int (List.length searches));
        ("cold_searches", Json.Int (List.length cold));
        ("job_tail_percentile", Json.Int tail_p);
        ("job_samples", Json.Int (List.length cold_lat));
        ("setup_samples", Json.Int (List.length store_setup));
        ("cheap_requests", Json.Int (List.length (cheap [ S.Status; S.Metrics; S.Checkpoint ])));
      ];
  }

(* ---- Host speed -------------------------------------------------------------------------- *)

(* Timed end-to-end metrics are reported at a fixed host speed: scaled by
   [reference_calib_s] over the run's median calibration-kernel time, the
   kernel's time on a host about as fast as the 2-vCPU VM README.md's
   numbers come from. The run record keeps them as measured. *)
let reference_calib_s = 0.020

let timed_metrics = [ "setup_s"; "wall_s"; "job_p50_s"; "job_tail_s"; "warm_job_p50_s"; "first_frontier_p50_s" ]

let at_reference_speed calib ms =
  if calib = [] then ms
  else
    let f = reference_calib_s /. median calib in
    List.map
      (fun (x : metric) ->
        if List.mem x.name timed_metrics then { x with value = x.value *. f }
        else if x.name = "points_per_s" then { x with value = x.value /. f }
        else x)
      ms

(* ---- Entry point -------------------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: perfbench --workload dse-kernels|dnn-flow|serve-mixed --seed N --seconds S --trace 0|1 \
     --workdir DIR --serve-exe PATH --calib-exe PATH [--manifest JSON]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec kv acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> kv ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kvs = kv [] args in
  let get k = List.assoc_opt k kvs in
  match get "--probe" with
  | Some "dse-kernels" -> ignore (Kernels.prepare ())
  | Some "dnn-flow" -> ignore (Dnn.build_models ())
  | Some w -> failwith ("no setup probe for " ^ w)
  | None ->
      let req k = match get k with Some v -> v | None -> usage () in
      let o =
        {
          workload = req "--workload";
          seed = int_of_string (req "--seed");
          seconds = float_of_string (req "--seconds");
          trace = req "--trace" = "1";
          workdir = req "--workdir";
          serve_exe = req "--serve-exe";
          calib_exe = req "--calib-exe";
          self_exe = Sys.executable_name;
          manifest =
            (match Option.map Json.of_string (get "--manifest") with
            | Some (Ok (Json.Obj kvs)) -> kvs
            | _ -> []);
        }
      in
      (try Sys.mkdir o.workdir 0o755 with Sys_error _ -> ());
      let run =
        match o.workload with
        | "dse-kernels" -> dse_kernels
        | "dnn-flow" -> dnn_flow
        | "serve-mixed" -> serve_mixed
        | w ->
            prerr_endline ("unknown workload " ^ w);
            exit 2
      in
      let r = run o in
      let measured = r.metrics in
      let r = if o.trace then r else { r with metrics = at_reference_speed r.calib r.metrics } in
      let mode = if o.trace then "traced" else "timed" in
      let mismatched =
        if r.counters = [] then []
        else
          let digest = Option.value ~default:"unknown" (source_digest o) in
          check_counters ~dir:(Filename.concat o.workdir "counters")
            ~key:(Printf.sprintf "%s-%s-%s" digest o.workload mode)
            r.counters
      in
      let drift, changed = List.partition (fun (k, _, _) -> List.mem k r.drifting) mismatched in
      let failures =
        r.failures
        @ List.map
            (fun (k, was, now) ->
              Printf.sprintf "deterministic counter %s reads %.17g, an earlier run of this tree read %.17g" k now was)
            changed
      in
      let failed = List.length failures in
      let attempted = max r.attempted 1 in
      let record =
        Json.Obj
          [
            ("workload", Json.String o.workload);
            ("mode", Json.String mode);
            ( "manifest",
              Json.Obj
                (o.manifest
                @ [
                    ("ocaml", Json.String Sys.ocaml_version);
                    ("ocamlrunparam", match Sys.getenv_opt "OCAMLRUNPARAM" with Some v -> Json.String v | None -> Json.Null);
                    ("seed", Json.Int o.seed);
                    ("seconds", Json.Float o.seconds);
                    ("config", r.config);
                  ]) );
            ("error_rate", Json.Float (float_of_int failed /. float_of_int attempted));
            ("failures", Json.List (List.map (fun s -> Json.String s) failures));
            ("counters", Json.Obj (List.map (fun (k, v) -> (k, num v)) r.counters));
            ( "counter_drift",
              Json.Obj
                (List.map
                   (fun (k, was, now) -> (k, Json.Obj [ ("earlier", Json.Float was); ("now", Json.Float now) ]))
                   drift) );
            ("rows", Json.List r.rows);
            ( "host_speed",
              Json.Obj
                [
                  ("calib_median_s", Json.Float (median r.calib));
                  ("reference_calib_s", Json.Float reference_calib_s);
                  ("samples", Json.Int (List.length r.calib));
                ] );
            ("measured", metrics_json measured);
          ]
          |> fun j -> match j with Json.Obj kvs -> Json.Obj (kvs @ r.extra) | j -> j
      in
      print_endline (Json.to_string (Json.Obj [ ("record", record) ]));
      let catalogue = if o.trace then per_layer else end_to_end in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("correct", Json.Bool (failed = 0));
                ("attempted", Json.Int attempted);
                ("failed", Json.Int failed);
                ("metrics", metrics_json (select catalogue r.metrics));
              ]))
