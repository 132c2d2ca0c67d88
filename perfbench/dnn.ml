(* Workload dnn-flow: the DNN compile flow of the paper's section 7.2 on three
   graph models, each at three configurations, synthesized by the virtual
   HLS tool. No DSE, estimator or daemon runs here. *)

open Mir
open Scalehls

let platform = Vhls.Platform.vu9p_slr

let models =
  [ ("resnet18", Models.Resnet.build); ("vgg16", Models.Vgg.build); ("mobilenet", Models.Mobilenet.build) ]

(* G7+L7+D (Table 4) first, so a model's first result is its optimized
   design; G1+L7+D (Figure 7's coarsest dataflow); the baseline the
   speedups are taken against. *)
let configs =
  [
    ("G7+L7+D", Pipeline.best_config);
    ("G1+L7+D", { Pipeline.graph_level = 1; loop_level = 7; directive = true });
    ("baseline", Pipeline.baseline_config);
  ]

let config_json =
  Obs.Json.Obj
    [
      ("platform", Obs.Json.String "vu9p-slr");
      ("configs", Obs.Json.List (List.map (fun (n, _) -> Obs.Json.String n) configs));
    ]

let span name f = Obs.Trace.with_span ~cat:"bench" name f

(* The work before the timed loop: building the three graph models. The
   setup probe runs this in a fresh process. *)
let build_models () =
  List.map
    (fun (name, build) ->
      let ctx = Ir.Ctx.create () in
      (name, ctx, build ctx))
    models

type job = {
  model : string;
  config : string;
  wall : float;
  flow_s : float;
  synth_s : float;
  report : Vhls.Synth.report;
  output : Ir.op;
}

(* One model at one configuration: the DNN flow, then synthesis. *)
let run_job (model, ctx, graph) (config, c) =
  let t0 = Util.now () in
  let output, report, flow_s, synth_s =
    span "bench.job" (fun () ->
        let tf = Util.now () in
        let out = span "bench.dnn_flow" (fun () -> Pipeline.dnn_flow ctx graph ~config:c ~platform) in
        let flow_s = Util.since tf in
        let ts = Util.now () in
        let rep = span "bench.synth" (fun () -> Vhls.Synth.synthesize out ~top:"forward") in
        (out, rep, flow_s, Util.since ts))
  in
  { model; config; wall = Util.since t0; flow_s; synth_s; report; output }

(* Re-synthesis of an already compiled module: what a compile-cache hit
   would leave of the job. Seconds. *)
let resynth j =
  let t0 = Util.now () in
  ignore (span "bench.warm" (fun () -> Vhls.Synth.synthesize j.output ~top:"forward"));
  Util.since t0

(* Per model: (baseline interval, log hypervolume of the configs' interval-DSP
   frontier with reference (2x baseline interval, platform DSP)). *)
let hv_of_model jobs =
  let base = List.find (fun j -> j.config = "baseline") jobs in
  let as_eval j =
    let r = j.report in
    {
      Dse.point = { Dse.lp = false; rvb = false; perm = []; tiles = []; target_ii = 1 };
      estimate = { Estimator.latency = r.Vhls.Synth.interval; interval = r.Vhls.Synth.interval; usage = r.Vhls.Synth.usage };
      feasible = true;
    }
  in
  let front = Dse.pareto_frontier (List.map as_eval jobs) in
  Dse.log_hypervolume
    ~ref_latency:(2 * base.report.Vhls.Synth.interval)
    ~ref_area:platform.Vhls.Platform.dsp front
