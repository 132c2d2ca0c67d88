(* Per-layer attribution of a traced run: span self times and counts from
   the events recorded by [Obs.Trace] (the benchmark's own spans plus those
   the program already emits), merged per span name. *)

type span = { name : string; ts : float; dur : float; tid : int; args : (string * Obs.Json.t) list }

type agg = { self_s : float; total_s : float; runs : int; durs : float list }

let of_events evs =
  List.filter_map
    (fun (e : Obs.Trace.event) ->
      match e.Obs.Trace.phase with
      | Obs.Trace.Complete ->
          Some
            {
              name = e.Obs.Trace.name;
              ts = Int64.to_float e.Obs.Trace.ts /. 1e9;
              dur = Int64.to_float e.Obs.Trace.dur /. 1e9;
              tid = e.Obs.Trace.tid;
              args = e.Obs.Trace.args;
            }
      | _ -> None)
    evs

(* Spans from a Chrome trace_event file (the daemon's [--trace] output):
   complete events only, microseconds converted to seconds. *)
let of_chrome (j : Obs.Json.t) =
  let events =
    match j with
    | Obs.Json.List l -> l
    | Obs.Json.Obj _ -> (
        match Obs.Json.member "traceEvents" j with Some (Obs.Json.List l) -> l | _ -> [])
    | _ -> []
  in
  List.filter_map
    (fun e ->
      let f k = Option.bind (Obs.Json.member k e) Obs.Json.to_float_opt in
      match (Obs.Json.member "ph" e, Obs.Json.member "name" e, f "ts", f "dur", f "tid") with
      | Some (Obs.Json.String "X"), Some (Obs.Json.String name), Some ts, Some dur, Some tid ->
          let args = match Obs.Json.member "args" e with Some (Obs.Json.Obj a) -> a | _ -> [] in
          Some { name; ts = ts /. 1e6; dur = dur /. 1e6; tid = int_of_float tid; args }
      | _ -> None)
    events

(* Self time of every span: its duration minus the part its direct children
   cover. Spans nest per thread/domain; a child is a later-starting span
   that ends within its parent. Returns (span, self seconds) pairs. *)
let self_times spans =
  let by_tid = Hashtbl.create 8 in
  List.iter
    (fun s ->
      Hashtbl.replace by_tid s.tid (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    spans;
  Hashtbl.fold
    (fun _ group acc ->
      let sorted =
        List.sort
          (fun a b -> match compare a.ts b.ts with 0 -> compare b.dur a.dur | c -> c)
          group
      in
      (* stack of (span, children seconds ref) *)
      let out = ref acc in
      let pop (s, kids) = out := (s, Float.max 0. (s.dur -. !kids)) :: !out in
      let stack = ref [] in
      List.iter
        (fun s ->
          let rec unwind () =
            match !stack with
            | ((p, _) as top) :: rest when s.ts >= p.ts +. p.dur -. 1e-9 ->
                pop top;
                stack := rest;
                unwind ()
            | _ -> ()
          in
          unwind ();
          (match !stack with (_, kids) :: _ -> kids := !kids +. s.dur | [] -> ());
          stack := (s, ref 0.) :: !stack)
        sorted;
      List.iter pop !stack;
      !out)
    by_tid []

(* Aggregate self time, total time, count and durations per span name. *)
let aggregate spans =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (s, self) ->
      let a =
        Option.value ~default:{ self_s = 0.; total_s = 0.; runs = 0; durs = [] }
          (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name
        { self_s = a.self_s +. self; total_s = a.total_s +. s.dur; runs = a.runs + 1; durs = s.dur :: a.durs })
    (self_times spans);
  tbl

let get tbl name =
  Option.value ~default:{ self_s = 0.; total_s = 0.; runs = 0; durs = [] } (Hashtbl.find_opt tbl name)

(* The cleanup-pipeline passes whose self time and invocation count the
   traced run reports. *)
let passes = [ "canonicalize"; "simplify-affine-if"; "affine-store-forward"; "simplify-memref-access"; "cse" ]

let pass_metrics tbl =
  List.concat_map
    (fun p ->
      let a = get tbl ("pass:" ^ p) in
      [ Util.m (Printf.sprintf "pass.%s_s" p) "s" a.self_s; Util.m (Printf.sprintf "pass.%s.runs" p) "count" (float_of_int a.runs) ])
    passes

(* Self time summed over every span except the benchmark's own per-job
   roots: the part of the wall that some layer claims. *)
let attributed ~roots tbl =
  Hashtbl.fold (fun name a acc -> if List.mem name roots then acc else acc +. a.self_s) tbl 0.
