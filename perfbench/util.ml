(* Shared helpers of the benchmark: order statistics, the result record,
   process memory and GC readings, and the deterministic-counter check. *)

module Json = Obs.Json

let now () = Obs.Clock.now_ns ()
let since = Obs.Clock.since_s

(* ---- Order statistics ------------------------------------------------------ *)

(* Linear-interpolated quantile of an unsorted sample; 0 on an empty one. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
      let a = Array.of_list sorted in
      let n = Array.length a in
      let pos = q *. float_of_int (n - 1) in
      let lo = truncate pos in
      let hi = min (n - 1) (lo + 1) in
      let frac = pos -. float_of_int lo in
      a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* The tail a sample supports: the highest percentile that still has at
   least ten samples beyond it. When no percentile from 50 up qualifies
   (fewer than 20 samples), the maximum is reported as percentile 100.
   Returns (percentile, value). *)
let tail xs =
  let n = List.length xs in
  let beyond p = float_of_int n *. (1. -. (float_of_int p /. 100.)) in
  match List.find_opt (fun p -> beyond p >= 10.) (List.init 50 (fun i -> 99 - i)) with
  | Some p -> (p, quantile (float_of_int p /. 100.) xs)
  | None -> (100, List.fold_left Float.max 0. xs)

let geomean = function
  | [] -> 0.
  | xs ->
      exp (List.fold_left (fun a v -> a +. log v) 0. xs /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.

(* ---- Process readings --------------------------------------------------------- *)

(* A "Name:  <n> kB" line of /proc/<pid>/status, in MB. *)
let proc_status_mb ?(pid = "self") key =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> 0.
        | line -> (
            match String.split_on_char ':' line with
            | [ k; v ] when k = key -> (
                match
                  List.filter (( <> ) "") (String.split_on_char ' ' (String.trim v))
                with
                | n :: _ -> float_of_string n /. 1024.
                | [] -> 0.)
            | _ -> go ())
      in
      Fun.protect ~finally:(fun () -> close_in ic) go

let peak_rss_mb ?pid () = proc_status_mb ?pid "VmHWM"

type gc_delta = { minor_words : float; promoted_words : float; major_collections : int }

(* GC work done by [f] on the calling domain. *)
let with_gc f =
  let a = Gc.quick_stat () in
  let v = f () in
  let b = Gc.quick_stat () in
  ( v,
    {
      minor_words = b.Gc.minor_words -. a.Gc.minor_words;
      promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
      major_collections = b.Gc.major_collections - a.Gc.major_collections;
    } )

(* ---- Host speed ------------------------------------------------------------------ *)

(* Times of [n] runs of the calibration kernel (calib.ml) in a fresh
   process. *)
let calibrate ~exe n =
  let ic = Unix.open_process_args_in exe [| exe; string_of_int n |] in
  let rec read acc =
    match input_line ic with l -> read (float_of_string (String.trim l) :: acc) | exception End_of_file -> List.rev acc
  in
  let ts = read [] in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 when ts <> [] -> ts
  | _ -> failwith "calibration probe failed"

(* ---- Result record ------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let metrics_json ms =
  Json.Obj
    (List.map
       (fun { name; value; unit_ } ->
         (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ]))
       ms)

(* Round a count-like float for display in the side record. *)
let num f = if Float.is_integer f then Json.Int (int_of_float f) else Json.Float f

(* ---- Deterministic counters ---------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic))

(* A file holding one JSON object: its fields, or [] when the file is
   missing or unreadable. *)
let read_table path =
  if Sys.file_exists path then match Json.of_string (read_file path) with Ok (Json.Obj kvs) -> kvs | _ -> []
  else []

let write_table path kvs = Obs.Metrics.write_atomic path (fun oc -> output_string oc (Json.to_string (Json.Obj kvs)))

(* Counters that should repeat exactly for one source tree, workload and
   mode are kept in the build directory. Returns (name, earlier value, this
   value) for every counter that differs from an earlier run. *)
let check_counters ~dir ~key counters =
  let path = Filename.concat dir (key ^ ".json") in
  match read_table path with
  | [] ->
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      write_table path (List.map (fun (k, v) -> (k, Json.Float v)) counters);
      []
  | kvs ->
      List.filter_map
        (fun (k, v) ->
          match Option.bind (List.assoc_opt k kvs) Json.to_float_opt with
          | Some v' when v' = v -> None
          | Some v' -> Some (k, v', v)
          | None -> Some (k, nan, v))
        counters

let copy_file src dst =
  let s = read_file src in
  let oc = open_out_bin dst in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)
