(* Workload serve-mixed: the scalehls-serve daemon under two closed-loop
   clients, one connection each, issuing a seeded mix of warm searches
   (already in the daemon's store), cold searches (new designs) and cheap
   requests (status, metrics, checkpoint), all over the line-JSON protocol
   on its Unix socket. *)

open Scalehls
module Json = Obs.Json
module Proto = Serve.Protocol

(* One worker domain. With two, the daemon runs three domains (the
   coordinator and two workers) on a two-vCPU VM, and run-to-run spreads
   of every latency were 25-37%, beyond the 0.25 bound any metric may
   have; with one they were 12-24%. Two concurrent searches still share
   the pool's worker round-robin at point granularity. *)
let jobs = 1
let clients = 2

(* Searches are much smaller than the CLI default: a cold one takes
   0.04-2.9 s, so a run times many of them. *)
let samples = 8
let iterations = 12

let kernels = [ "bicg"; "gemm"; "gesummv"; "syr2k"; "syrk" ]
let sizes = [ 16; 20; 24; 28; 32 ]
let strategies = [ "exhaustive"; "surrogate" ]

type design = { kernel : string; size : int; strategy : string }

let label d = Printf.sprintf "%s-%d/%s" d.kernel d.size d.strategy
let source d = Models.Polybench.source (Models.Polybench.of_name d.kernel) ~n:d.size
let request_design d = Proto.Kernel { kernel = d.kernel; size = d.size }

(* Every search uses the CLI's default DSE seed; the run seed orders the
   requests but does not change what a search explores, so runs with
   different seeds do the same work. *)
let dse_seed = Proto.default_config.Proto.seed
let config d = { Proto.default_config with Proto.samples; iterations; strategy = d.strategy }

(* Seeded Fisher-Yates shuffle. *)
let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* The mix: every kernel at every size, one design each, shuffled once
   with a fixed seed and dealt alternately to the warm half (pre-filled
   into the store) and the cold half (new to it), with the strategy
   alternating along each half. A kernel appears at a size only once: the
   store keys evaluations by design, not by strategy, so a second
   strategy of one kernel and size would find its points already there
   whenever the first had run, and its work would depend on the request
   order. *)
let warm_designs, cold_designs =
  let pairs = List.concat_map (fun kernel -> List.map (fun size -> (kernel, size)) sizes) kernels in
  let dealt = shuffle (Random.State.make [| 11 |]) pairs in
  let half parity =
    List.filteri (fun i _ -> i mod 2 = parity) dealt
    |> List.mapi (fun i (kernel, size) -> { kernel; size; strategy = List.nth strategies (i mod 2) })
  in
  (half 0, half 1)

(* The traffic runs in [rounds] rounds, so warm and cold samples spread
   over the whole run. A round is a warm phase, in which one client alone
   searches every warm design once, then a cold phase, in which both
   clients first search their share of the round's cold designs, starting
   together, then send [cheap_per_client] status/metrics requests and a
   checkpoint each, so checkpoints run beside the other client's store
   writes. Two choices keep a search's latency from depending on the run
   seed. Warm searches are not mixed with cold ones: concurrent requests
   take turns on the daemon's coordinating domain, and a millisecond
   replay's latency then mostly measured which cold search it overlapped
   (five-seed spreads of 50-220%). And the cold searches of a phase start
   together: with cheap requests shuffled in front of them, how much two
   searches overlapped changed from seed to seed, and the cold median
   spread 40% over five seeds. *)
let rounds = 6
let cheap_per_client = 2

type request = Search of design | Status | Metrics | Checkpoint

let config_json =
  Json.Obj
    [
      ("daemon_jobs", Json.Int jobs);
      ("clients", Json.Int clients);
      ("samples", Json.Int samples);
      ("iterations", Json.Int iterations);
      ("window", Json.Int Dse.default_window);
      ("dse_seed", Json.Int dse_seed);
      ("rounds", Json.Int rounds);
      ("warm", Json.List (List.map (fun d -> Json.String (label d)) warm_designs));
      ("cold", Json.List (List.map (fun d -> Json.String (label d)) cold_designs));
      ("platform", Json.String "xc7z020");
    ]

(* The phases of one run, each a list of per-client scripts. Which round
   and client a cold design goes to is fixed; the run seed orders the warm
   searches and the cheap requests. *)
let plan ~seed =
  let rng = Random.State.make [| seed |] in
  let n_cold = List.length cold_designs in
  List.concat
    (List.init rounds (fun r ->
         let cold = List.filteri (fun i _ -> i * rounds / n_cold = r) cold_designs in
         let warm_phase = [ List.map (fun d -> Search d) (shuffle rng warm_designs) ] in
         let cold_phase =
           List.init clients (fun c ->
               List.filteri (fun i _ -> i mod clients = c) (List.map (fun d -> Search d) cold)
               @ shuffle rng (Checkpoint :: List.init cheap_per_client (fun k -> if k mod 2 = 0 then Status else Metrics)))
         in
         [ warm_phase; cold_phase ]))

(* ---- Client side of the protocol --------------------------------------------- *)

type conn = { ic : in_channel; oc : out_channel; fd : Unix.file_descr }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path) with e -> Unix.close fd; raise e);
  { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c j =
  output_string c.oc (Json.to_string j);
  output_char c.oc '\n';
  flush c.oc

let recv c =
  match Json.of_string (input_line c.ic) with
  | Ok j -> j
  | Error e -> failwith ("undecodable response: " ^ e)

let resp_kind j = match Json.member "resp" j with Some (Json.String s) -> s | _ -> "?"

type search_out = {
  design : design;
  latency : float;
  first_frontier : float;
  daemon_wall : float;
  explored : int;
  hits : int;
  misses : int;
  pareto : string;  (** the result's frontier, as JSON text *)
}

(* One request; raises on a protocol error. *)
let search c d =
  let t0 = Util.now () in
  send c (Proto.search_request ~design:(request_design d) ~config:(config d));
  let first = ref 0. in
  let rec loop () =
    let j = recv c in
    match resp_kind j with
    | "ack" -> loop ()
    | "frontier" ->
        if !first = 0. then first := Util.since t0;
        loop ()
    | "result" -> j
    | "error" -> failwith ("daemon error: " ^ Json.to_string j)
    | k -> failwith ("unexpected response " ^ k)
  in
  let j = loop () in
  let latency = Util.since t0 in
  let f k = match Json.member k j with Some v -> v | None -> failwith ("result lacks " ^ k) in
  let stat k = match Json.member k (f "stats") with Some (Json.Int n) -> n | _ -> 0 in
  {
    design = d;
    latency;
    first_frontier = (if !first = 0. then latency else !first);
    daemon_wall = Option.value ~default:0. (Json.to_float_opt (f "wall_s"));
    explored = (match f "explored" with Json.Int n -> n | _ -> 0);
    hits = stat "cache_hits";
    misses = stat "cache_misses";
    pareto = Json.to_string (f "pareto");
  }

let simple c req expect =
  let t0 = Util.now () in
  send c req;
  let j = recv c in
  if resp_kind j <> expect then failwith ("expected " ^ expect ^ ", got " ^ Json.to_string j);
  (Util.since t0, j)

(* ---- Daemon lifecycle ------------------------------------------------------------ *)

type daemon = { pid : int; socket : string; mutable reaped : bool }

let spawn ~exe ~workdir ?store ?trace ~tag () =
  let socket = Filename.concat workdir (tag ^ ".sock") in
  if Sys.file_exists socket then Sys.remove socket;
  let log = Unix.openfile (Filename.concat workdir (tag ^ ".log")) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let args =
    [ exe; "--socket"; socket; "--jobs"; string_of_int jobs; "--checkpoint-every"; "0" ]
    @ (match store with Some s -> [ "--store"; s ] | None -> [])
    @ match trace with Some t -> [ "--trace"; t ] | None -> []
  in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close log) (fun () ->
        Unix.create_process exe (Array.of_list args) Unix.stdin log log)
  in
  { pid; socket; reaped = false }

(* Poll until the daemon answers a ping; the seconds since [t0]. *)
let await_ready ~t0 d =
  let deadline = 60. in
  let rec go () =
    match connect d.socket with
    | c ->
        Fun.protect ~finally:(fun () -> close c) (fun () ->
            ignore (simple c (Json.Obj [ ("req", Json.String "ping") ]) "pong"));
        Util.since t0
    | exception Unix.Unix_error _ ->
        if Util.since t0 > deadline then failwith "daemon did not come up";
        (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ -> ()
        | _ -> failwith "daemon exited during start-up");
        Unix.sleepf 0.002;
        go ()
  in
  go ()

let reap d =
  if not d.reaped then begin
    (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ());
    d.reaped <- true
  end

(* Ask for a graceful shutdown (checkpoints the store) and reap. *)
let shutdown d =
  if not d.reaped then begin
    (match connect d.socket with
    | c ->
        Fun.protect ~finally:(fun () -> close c) (fun () ->
            try ignore (simple c Proto.shutdown_request "stopping") with _ -> ())
    | exception Unix.Unix_error _ -> ( try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
    reap d
  end

let kill d =
  if not d.reaped then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap d
  end

let start ~exe ~workdir ?store ?trace ~tag () =
  let t0 = Util.now () in
  let d = spawn ~exe ~workdir ?store ?trace ~tag () in
  match await_ready ~t0 d with s -> (d, s) | exception e -> kill d; raise e

(* ---- Prometheus scrape -------------------------------------------------------------- *)

(* Values of the series [name] (any labels) in a text exposition. *)
let prom_values body name =
  List.filter_map
    (fun line ->
      if String.length line > 0 && line.[0] <> '#' then
        match String.index_opt line ' ' with
        | Some sp ->
            let key = String.sub line 0 sp in
            let base = match String.index_opt key '{' with Some b -> String.sub key 0 b | None -> key in
            if base = name then
              Option.map (fun v -> (key, v)) (float_of_string_opt (String.trim (String.sub line sp (String.length line - sp))))
            else None
        | None -> None
      else None)
    (String.split_on_char '\n' body)

(* A histogram quantile the exposition carries as a [<name>_p50]-style
   gauge. *)
let prom_quantile body name q =
  match prom_values body (name ^ "_" ^ q) with (_, v) :: _ -> Some v | [] -> None

(* ---- One run of the mix ----------------------------------------------------------- *)

type outcome =
  | Searched of search_out
  | Cheap of request * float
  | Failed of string

let kind_of = function Search _ -> "search" | Status -> "status" | Metrics -> "metrics" | Checkpoint -> "checkpoint"

let run_script socket script =
  match connect socket with
  | exception e -> List.map (fun _ -> Failed (Printexc.to_string e)) script
  | c ->
      Fun.protect ~finally:(fun () -> close c) (fun () ->
          List.map
            (fun req ->
              match
                match req with
                | Search d -> Searched (search c d)
                | Status -> Cheap (req, fst (simple c Proto.status_request "status"))
                | Metrics -> Cheap (req, fst (simple c Proto.metrics_request "metrics"))
                | Checkpoint -> Cheap (req, fst (simple c (Json.Obj [ ("req", Json.String "checkpoint") ]) "checkpointed"))
              with
              | o -> o
              | exception e -> Failed (kind_of req ^ ": " ^ Printexc.to_string e))
            script)

(* Run every client's script concurrently; (outcomes, makespan seconds). *)
let traffic socket scripts =
  let results = Array.make (List.length scripts) [] in
  let t0 = Util.now () in
  let threads = List.mapi (fun i s -> Thread.create (fun () -> results.(i) <- run_script socket s) ()) scripts in
  List.iter Thread.join threads;
  (List.concat (Array.to_list results), Util.since t0)

(* The prefill: the daemon under test searches every warm design once (the
   clients split the list), then checkpoints its store on shutdown. *)
let prefill ~exe ~workdir ~store warm =
  let d, _ = start ~exe ~workdir ~store ~tag:"prefill" () in
  let halves = List.init clients (fun c -> List.filteri (fun i _ -> i mod clients = c) warm) in
  let outs, _ = traffic d.socket (List.map (List.map (fun x -> Search x)) halves) in
  shutdown d;
  List.map (function Searched s -> s | Failed e -> failwith ("prefill: " ^ e) | Cheap _ -> assert false) outs

(* ---- The in-process reference -------------------------------------------------- *)

(* What a remote search must reproduce: the in-process [Dse.run] frontier
   for the same design and config (as JSON text), and the design's QoR. *)
type reference = { pareto : string; base : int; best : int; hv : float }

let local_search d =
  let top = d.kernel in
  let ctx = Mir.Ir.Ctx.create () in
  let m = Pipeline.compile_c ctx (source d) in
  let strategy = Option.get (Qor_ml.strategy_of_name d.strategy) in
  let platform = Vhls.Platform.xc7z020 in
  let r = Dse.run ~samples ~iterations ~seed:dse_seed ~window:Dse.default_window ~strategy ~jobs:1 ctx m ~top ~platform in
  let base = (Vhls.Synth.synthesize m ~top).Vhls.Synth.latency in
  let best = (Vhls.Synth.synthesize r.Dse.module_ ~top).Vhls.Synth.latency in
  let hv = Dse.log_hypervolume ~ref_latency:(2 * base) ~ref_area:platform.Vhls.Platform.dsp r.Dse.pareto in
  { pareto = Json.to_string (Json.List (List.map Serve.Codec.evaluated_to_json r.Dse.pareto)); base; best; hv }

let reference_to_json r =
  Json.Obj [ ("pareto", Json.String r.pareto); ("base", Json.Int r.base); ("best", Json.Int r.best); ("hv", Json.Float r.hv) ]

let reference_of_json j =
  match (Json.member "pareto" j, Json.member "base" j, Json.member "best" j, Option.bind (Json.member "hv" j) Json.to_float_opt) with
  | Some (Json.String pareto), Some (Json.Int base), Some (Json.Int best), Some hv -> Some { pareto; base; best; hv }
  | _ -> None
