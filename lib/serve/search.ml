(** The one search path of [scalehls-dse] (local and [--remote]) and the
    [scalehls-serve] daemon. Both take a {!Protocol.design} and a
    {!Protocol.config}, {!resolve} them here — range checks, design source,
    platform, strategy — and hand the result to {!run}, which compiles the
    source and makes the only [Dse.run] call of either tool. A remote search
    therefore reproduces the in-process one by construction: one record, one
    set of defaults, one resolver, one engine call.

    Resolution is split from running so the daemon can reject a bad request
    before it acknowledges it or registers a job. *)

open Scalehls

type t = {
  src : string;  (** HLS-C source of the design *)
  top : string;
  platform : Vhls.Platform.t;
  strategy : Dse.Strategy.t;
      (** learning strategies carry state: run a resolved search once *)
  config : Protocol.config;
}

let choices names = String.concat " | " names

let kernel_names =
  List.map Models.Polybench.name
    (Models.Polybench.all @ Models.Polybench.extras)

let ( let* ) = Result.bind

let non_negative name v =
  if v < 0 then Error (Printf.sprintf "%s must be >= 0 (got %d)" name v)
  else Ok ()

let design_source = function
  | Protocol.C_source { src; top } -> Ok (src, top)
  | Protocol.Kernel { kernel; size } -> (
      match Models.Polybench.of_name kernel with
      | k -> Ok (Models.Polybench.source k ~n:size, Models.Polybench.name k)
      | exception Invalid_argument _ ->
          Error
            (Printf.sprintf "unknown kernel %s (%s)" kernel
               (choices kernel_names)))

(** Validate and resolve one search. [Error] carries the client-facing
    message — the same text whether the CLI prints it or the daemon sends
    it. *)
let resolve design (config : Protocol.config) =
  let* () = non_negative "samples" config.samples in
  let* () = non_negative "iterations" config.iterations in
  let* () = non_negative "window" config.window in
  let* src, top = design_source design in
  let* platform =
    match Vhls.Platform.of_name config.platform with
    | Some p -> Ok p
    | None ->
        Error
          (Printf.sprintf "unknown platform %s (%s)" config.platform
             (choices Vhls.Platform.names))
  in
  let* strategy =
    match Qor_ml.strategy_of_name config.strategy with
    | Some s -> Ok s
    | None ->
        Error
          (Printf.sprintf "unknown strategy %s (%s)" config.strategy
             (choices Qor_ml.strategy_names))
  in
  Ok { src; top; platform; strategy; config }

type outcome = {
  input : Mir.Ir.op;  (** the compiled source, before any design point *)
  result : Dse.result;
  wall_s : float;  (** the engine's wall time, compilation excluded *)
}

(** Compile the resolved source and explore it. The optional arguments are
    the caller's execution context, passed through to [Dse.run]: worker
    pool or count, shared caches, the job identity and the streaming
    hook. *)
let run ?jobs ?pool ?cache ?memos ?job ?on_frontier s =
  let c = s.config in
  let ctx = Mir.Ir.Ctx.create () in
  let input = Pipeline.compile_c ctx s.src in
  let result, wall_s =
    Obs.Clock.time_s (fun () ->
        Dse.run ~samples:c.samples ~iterations:c.iterations ~seed:c.seed
          ~symbolic:c.symbolic ~window:c.window ~strategy:s.strategy ?jobs
          ?pool ?cache ?memos ?job ?on_frontier ctx input ~top:s.top
          ~platform:s.platform)
  in
  { input; result; wall_s }
