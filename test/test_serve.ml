(* Tests for the DSE service layer (lib/serve): protocol parse/build
   round-trips, codec round-trips over the full value range, the disk-backed
   store (save/load equality, version-mismatch invalidation, corruption
   tolerance), the daemon's evaluation accounting and scrape listener, and
   the headline service property — a warm store replays a cold run
   bit-for-bit without re-evaluating anything. *)

open Scalehls
open Helpers
module P = Vhls.Platform
module Sp = Serve.Protocol
module Json = Obs.Json

let ev latency dsp feasible =
  {
    Dse.point =
      { Dse.lp = true; rvb = false; perm = [ 2; 0; 1 ]; tiles = [ 4; 1; 8 ]; target_ii = 3 };
    estimate =
      {
        Estimator.latency;
        interval = latency / 2;
        usage = { P.usage_zero with P.u_dsp = dsp; P.u_lut = 7 * dsp };
      };
    feasible;
  }

(* ---- Codec ----------------------------------------------------------------- *)

let test_codec_roundtrips () =
  let e = ev 1234 56 true in
  let through to_j of_j v = of_j (to_j v) in
  Alcotest.(check bool) "point" true
    (through Serve.Codec.point_to_json Serve.Codec.point_of_json e.Dse.point
    = e.Dse.point);
  Alcotest.(check bool) "evaluated" true
    (through Serve.Codec.evaluated_to_json Serve.Codec.evaluated_of_json e = e);
  Alcotest.(check bool) "evaluated opt None" true
    (through Serve.Codec.evaluated_opt_to_json Serve.Codec.evaluated_opt_of_json
       None
    = None);
  (* Top-bit-set fingerprints are negative as int64 — the hex round-trip must
     survive the full unsigned range. *)
  let fp = 0xdeadbeefcafef00dL in
  Alcotest.(check bool) "negative fingerprint" true
    (through Serve.Codec.fp_to_json Serve.Codec.fp_of_json fp = fp);
  let key = (fp, [ 1; 0; 2 ], [ 8; 1; 4 ], 2) in
  Alcotest.(check bool) "eval key" true
    (through Serve.Codec.eval_key_to_json Serve.Codec.eval_key_of_json key = key);
  let band =
    {
      Estimator.bs_ii_base = 3;
      bs_iter_lat = 17;
      bs_total_trip = 4096;
      bs_fu_counts = [ ("fadd", 2); ("fmul", 3) ];
    }
  in
  Alcotest.(check bool) "band summary" true
    (through Serve.Codec.band_summary_to_json Serve.Codec.band_summary_of_json
       band
    = band)

let test_codec_rejects_malformed () =
  let expect_malformed name f =
    match f () with
    | exception Serve.Codec.Malformed _ -> ()
    | _ -> Alcotest.failf "%s: expected Malformed" name
  in
  expect_malformed "bad fingerprint" (fun () ->
      Serve.Codec.fp_of_json (Json.String "not-hex"));
  expect_malformed "missing field" (fun () ->
      Serve.Codec.point_of_json (Json.Obj [ ("lp", Json.Bool true) ]));
  expect_malformed "wrong shape" (fun () ->
      Serve.Codec.eval_key_of_json (Json.String "nope"))

(* ---- Protocol -------------------------------------------------------------- *)

let test_protocol_parse () =
  (match
     Sp.request_of_line
       {|{"req":"search","design":{"kernel":"gemm","size":32}}|}
   with
  | Ok (Sp.Search { design = Sp.Kernel { kernel; size }; config }) ->
      Alcotest.(check string) "kernel" "gemm" kernel;
      Alcotest.(check int) "size" 32 size;
      (* Absent config = the scalehls-dse CLI defaults. *)
      Alcotest.(check bool) "default config" true (config = Sp.default_config)
  | _ -> Alcotest.fail "kernel search did not parse");
  (match
     Sp.request_of_line
       {|{"req":"search","design":{"c":"void f() {}","top":"f"},"config":{"seed":7,"samples":4}}|}
   with
  | Ok (Sp.Search { design = Sp.C_source { top; _ }; config }) ->
      Alcotest.(check string) "top" "f" top;
      Alcotest.(check int) "seed override" 7 config.Sp.seed;
      Alcotest.(check int) "samples override" 4 config.Sp.samples;
      Alcotest.(check int) "iterations default" 80 config.Sp.iterations;
      Alcotest.(check string) "strategy default" "exhaustive" config.Sp.strategy
  | _ -> Alcotest.fail "C search did not parse");
  (match
     Sp.request_of_line
       {|{"req":"search","design":{"kernel":"gemm"},"config":{"strategy":"surrogate"}}|}
   with
  | Ok (Sp.Search { config; _ }) ->
      Alcotest.(check string) "strategy override" "surrogate" config.Sp.strategy
  | _ -> Alcotest.fail "strategy search did not parse");
  List.iter
    (fun (line, expect) ->
      match Sp.request_of_line line with
      | Ok r when r = expect -> ()
      | _ -> Alcotest.failf "%s did not parse" line)
    [
      ({|{"req":"status"}|}, Sp.Status);
      ({|{"req":"ping"}|}, Sp.Ping);
      ({|{"req":"checkpoint"}|}, Sp.Checkpoint);
      ({|{"req":"shutdown"}|}, Sp.Shutdown);
    ];
  let expect_error line =
    match Sp.request_of_line line with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s should not parse" line
  in
  expect_error "not json at all";
  expect_error {|{"req":"warp-core-breach"}|};
  expect_error {|{"design":{"kernel":"gemm"}}|};
  expect_error {|{"req":"search","design":{"neither":1}}|}

let test_protocol_client_roundtrip () =
  (* What the --remote client builds must parse back to the same request. *)
  let design = Sp.Kernel { kernel = "syrk"; size = 16 } in
  let config =
    { Sp.default_config with Sp.seed = 99; symbolic = false; strategy = "surrogate" }
  in
  match
    Sp.request_of_line (Json.to_string (Sp.search_request ~design ~config))
  with
  | Ok (Sp.Search s) ->
      Alcotest.(check bool) "design survives" true (s.design = design);
      Alcotest.(check bool) "config survives" true (s.config = config)
  | _ -> Alcotest.fail "client-built search did not round-trip"

(* ---- Store ----------------------------------------------------------------- *)

let with_temp_store f =
  let path = Filename.temp_file "scalehls-serve-test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let populate store =
  let cache = Serve.Store.cache_for store "xc7z020" in
  Eval_cache.add cache (0x1122334455667788L, [ 0; 1 ], [ 2; 4 ], 3)
    (Some (ev 100 5 true));
  Eval_cache.add cache (0xfeedfacefeedfaceL, [ 1; 0 ], [ 1; 1 ], 1) None;
  (* Same key shape under another platform must stay segregated. *)
  Eval_cache.add
    (Serve.Store.cache_for store "vu9p-slr")
    (0x1122334455667788L, [ 0; 1 ], [ 2; 4 ], 3)
    (Some (ev 100 5 false));
  Estimator.import_bands (Serve.Store.memos store)
    [
      ( 0xdeadbeefcafef00dL,
        {
          Estimator.bs_ii_base = 2;
          bs_iter_lat = 9;
          bs_total_trip = 64;
          bs_fu_counts = [ ("fmul", 1) ];
        } );
    ]

let sorted_bindings store platform =
  List.sort compare
    (Eval_cache.bindings (Serve.Store.cache_for store platform))

let test_store_roundtrip () =
  with_temp_store @@ fun path ->
  let s1 = Serve.Store.open_ ~path () in
  populate s1;
  let written = Serve.Store.save s1 in
  Alcotest.(check int) "records written" 4 written;
  let s2 = Serve.Store.open_ ~path () in
  Alcotest.(check bool) "evals equal by fingerprint" true
    (sorted_bindings s1 "xc7z020" = sorted_bindings s2 "xc7z020");
  Alcotest.(check bool) "platforms segregated" true
    (sorted_bindings s1 "vu9p-slr" = sorted_bindings s2 "vu9p-slr"
    && sorted_bindings s2 "vu9p-slr" <> sorted_bindings s2 "xc7z020");
  Alcotest.(check bool) "bands equal" true
    (List.sort compare (Estimator.export_bands (Serve.Store.memos s1))
    = List.sort compare (Estimator.export_bands (Serve.Store.memos s2)));
  (* Deterministic serialization: an immediate re-save is byte-identical. *)
  ignore (Serve.Store.save s2);
  let read p = In_channel.with_open_bin p In_channel.input_all in
  let before = read path in
  ignore (Serve.Store.save s2);
  Alcotest.(check bool) "stable bytes" true (read path = before)

let test_store_version_mismatch_cold () =
  with_temp_store @@ fun path ->
  let oc = open_out path in
  output_string oc {|{"magic":"scalehls-store","version":999}|};
  output_char oc '\n';
  output_string oc
    {|{"t":"band","k":"0000000000000001","v":{"ii_base":1,"iter_lat":1,"trip":1,"fu":[]}}|};
  output_char oc '\n';
  close_out oc;
  let s = Serve.Store.open_ ~path () in
  Alcotest.(check int) "nothing loaded" 0
    (Estimator.memo_length (Serve.Store.memos s));
  match Serve.Store.to_status_json s |> Json.member "cold_reason" with
  | Some (Json.String _) -> ()
  | _ -> Alcotest.fail "expected a cold_reason"

let test_store_corruption_tolerated () =
  with_temp_store @@ fun path ->
  let s1 = Serve.Store.open_ ~path () in
  populate s1;
  ignore (Serve.Store.save s1);
  (* Simulate a writer killed mid-append: valid records followed by garbage
     and a truncated line. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "this is not json\n";
  output_string oc {|{"t":"eval","platform":"xc7z020"}|};
  output_char oc '\n';
  output_string oc {|{"t":"band","k":"00|};
  close_out oc;
  let s2 = Serve.Store.open_ ~path () in
  Alcotest.(check bool) "good records survive" true
    (sorted_bindings s1 "xc7z020" = sorted_bindings s2 "xc7z020");
  match Serve.Store.to_status_json s2 |> Json.member "skipped_lines" with
  | Some (Json.Int n) -> Alcotest.(check int) "bad lines counted" 3 n
  | _ -> Alcotest.fail "skipped_lines missing from status"

(* ---- Jobs ------------------------------------------------------------------ *)

let test_jobs_lifecycle () =
  let t = Serve.Jobs.create ~keep:2 () in
  let j1 = Serve.Jobs.submit t ~label:"a" in
  let j2 = Serve.Jobs.submit t ~label:"b" in
  Serve.Jobs.start t j1;
  Serve.Jobs.progress t j1 ~explored:10 ~frontier_size:3;
  Serve.Jobs.finish t j1;
  Serve.Jobs.start t j2;
  Serve.Jobs.fail t j2 "boom";
  let queued, running, done_, failed = Serve.Jobs.counts t in
  Alcotest.(check (list int)) "counts" [ 0; 0; 1; 1 ]
    [ queued; running; done_; failed ];
  (* Finished jobs beyond [keep] age out; live jobs never do. *)
  for i = 0 to 4 do
    Serve.Jobs.finish t (Serve.Jobs.submit t ~label:(string_of_int i))
  done;
  let live = Serve.Jobs.submit t ~label:"live" in
  ignore (Serve.Jobs.submit t ~label:"also-live");
  let _, _, done_, failed = Serve.Jobs.counts t in
  Alcotest.(check int) "bounded history" 2 (done_ + failed);
  match Serve.Jobs.to_status_json t with
  | Json.List rows ->
      Alcotest.(check int) "status rows" 4 (List.length rows);
      Alcotest.(check bool) "live job listed" true
        (List.exists
           (fun r -> Json.member "label" r = Some (Json.String "live"))
           rows);
      ignore live
  | _ -> Alcotest.fail "status must be a list"

(* ---- The headline property: warm replay ------------------------------------ *)

let check_store_warm_run_bit_identical ~strategy () =
  with_temp_store @@ fun path ->
  Sys.remove path;
  let search store =
    let ctx, m = compile_kernel ~n:8 Models.Polybench.Gemm in
    Dse.run ~samples:8 ~iterations:10 ~seed:7 ?strategy
      ~cache:(Serve.Store.cache_for store "xc7z020")
      ~memos:(Serve.Store.memos store)
      ctx m ~top:"gemm" ~platform:P.xc7z020
  in
  let s1 = Serve.Store.open_ ~path () in
  let r1 = search s1 in
  ignore (Serve.Store.save s1);
  let s2 = Serve.Store.open_ ~path () in
  let r2 = search s2 in
  Alcotest.(check bool) "identical frontier" true (r1.Dse.pareto = r2.Dse.pareto);
  Alcotest.(check bool) "identical best" true (r1.Dse.best = r2.Dse.best);
  Alcotest.(check int) "same exploration" r1.Dse.explored r2.Dse.explored;
  Alcotest.(check int) "cold run starts empty" 0 r1.Dse.stats.Dse.cache_hits;
  (* Deterministic replay: the warm run proposes exactly the cold run's
     points, so every single one is served from the restored store. *)
  Alcotest.(check int) "warm run evaluates nothing" 0
    r2.Dse.stats.Dse.cache_misses;
  Alcotest.(check bool) "warm hits nonzero" true
    (r2.Dse.stats.Dse.cache_hits > 0)

let test_store_warm_run_bit_identical () =
  check_store_warm_run_bit_identical ~strategy:None ()

(* The same replay contract must hold for a learning strategy: warm-store
   merges reach [Strategy.observe] in the cold run's merge order, so the
   surrogate's RLS state — and every shortlist it derives — replays exactly,
   down to a zero-miss warm run. *)
let test_store_warm_run_surrogate () =
  check_store_warm_run_bit_identical ~strategy:(Some (Qor_ml.surrogate ())) ()

(* ---- One search path: the resolver and the daemon's request path ----------- *)

let gemm8 = Sp.Kernel { kernel = "gemm"; size = 8 }
let small = { Sp.default_config with Sp.samples = 4; iterations = 4 }

(* An in-process daemon serving one end of a socket pair; [f] talks to it
   through [request], which sends one line and returns the responses up to
   the first that ends the exchange. *)
let with_daemon f =
  let t = Serve.Server.create ~socket:"unbound.sock" ~jobs:1 () in
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Thread.create (Serve.Server.handle_conn t) server in
  let ic = Unix.in_channel_of_descr client in
  let oc = Unix.out_channel_of_descr client in
  let request line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    let rec read acc =
      let j = Result.get_ok (Json.of_string (input_line ic)) in
      match Json.member "resp" j with
      | Some (Json.String ("ack" | "frontier")) -> read (j :: acc)
      | _ -> List.rev (j :: acc)
    in
    read []
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop t;
      close_out_noerr oc;
      Thread.join conn)
    (fun () -> f t request)

let search_line design config =
  Json.to_string (Sp.search_request ~design ~config)

(* A rejected search is answered with one [error] carrying the resolver's
   message: no [ack], no job. *)
let expect_rejected request line msg =
  match request line with
  | [ j ] ->
      Alcotest.(check (option string)) "error response" (Some "error")
        (Option.map Serve.Codec.to_string (Json.member "resp" j));
      Alcotest.(check (option string)) "resolver's message" (Some msg)
        (Option.map Serve.Codec.to_string (Json.member "message" j))
  | rs -> Alcotest.failf "%s: expected one error, got %d responses" line (List.length rs)

let resolve_error design config =
  match Serve.Search.resolve design config with
  | Ok _ -> Alcotest.fail "resolver accepted a bad search"
  | Error msg -> msg

(* Unchecked, negative samples make the engine recurse until the stack
   overflows and a negative window raises Queue.Empty out of the executor:
   the resolver rejects them at the boundary, and the daemon keeps
   serving. *)
let test_search_rejects_negative_config () =
  with_daemon @@ fun t request ->
  List.iter
    (fun (field, config) ->
      let msg = resolve_error gemm8 config in
      Alcotest.(check string) field (field ^ " must be >= 0 (got -1)") msg;
      expect_rejected request (search_line gemm8 config) msg)
    [
      ("samples", { small with Sp.samples = -1 });
      ("iterations", { small with Sp.iterations = -1 });
      ("window", { small with Sp.window = -1 });
    ];
  expect_rejected request
    {|{"req":"search","design":{"kernel":"gemm"},"config":{"samples":-1}}|}
    "samples must be >= 0 (got -1)";
  let queued, running, done_, failed = Serve.Jobs.counts t.Serve.Server.registry in
  Alcotest.(check (list int)) "no job registered" [ 0; 0; 0; 0 ]
    [ queued; running; done_; failed ];
  match request {|{"req":"ping"}|} with
  | [ j ] when Json.member "resp" j = Some (Json.String "pong") -> ()
  | _ -> Alcotest.fail "daemon stopped serving after a rejected search"

let test_search_resolves_names () =
  Alcotest.(check bool) "vu9p alias" true
    (Vhls.Platform.of_name "vu9p" = Some P.vu9p_slr);
  (match Serve.Search.resolve gemm8 { small with Sp.platform = "vu9p" } with
  | Ok s ->
      Alcotest.(check string) "alias resolves to the SLR" "vu9p-slr"
        s.Serve.Search.platform.P.name
  | Error msg -> Alcotest.fail msg);
  with_daemon @@ fun _ request ->
  List.iter
    (fun (what, design, config) ->
      let msg = resolve_error design config in
      Alcotest.(check bool) (what ^ " named") true
        (String.starts_with ~prefix:("unknown " ^ what) msg);
      expect_rejected request (search_line design config) msg)
    [
      ("kernel", Sp.Kernel { kernel = "warp-core"; size = 8 }, small);
      ("platform", gemm8, { small with Sp.platform = "zynq-9000" });
      ("strategy", gemm8, { small with Sp.strategy = "annealing" });
    ]

(* Remote = local by construction: the daemon's answer to a search with
   non-default fields is the in-process [Search.run] frontier. *)
let test_daemon_matches_local () =
  let config =
    { small with Sp.seed = 7; window = 0; symbolic = false; platform = "vu9p" }
  in
  let local =
    (Serve.Search.run (Result.get_ok (Serve.Search.resolve gemm8 config)))
      .Serve.Search.result
  in
  with_daemon @@ fun _ request ->
  match List.rev (request (search_line gemm8 config)) with
  | final :: _ when Json.member "resp" final = Some (Json.String "result") ->
      let pareto =
        match Json.member "pareto" final with
        | Some (Json.List l) -> List.map Serve.Codec.evaluated_of_json l
        | _ -> []
      in
      Alcotest.(check bool) "same frontier" true (pareto = local.Dse.pareto);
      Alcotest.(check (option int)) "same exploration"
        (Some local.Dse.explored)
        (Option.map Serve.Codec.to_int (Json.member "explored" final))
  | _ -> Alcotest.fail "daemon search did not end in a result"

let int_at path j =
  match List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path with
  | Some v -> Serve.Codec.to_int v
  | None -> Alcotest.failf "missing %s" (String.concat "." path)

(* The daemon's evaluation accounting comes from its worker pool: once its
   searches finish, the evaluations granted equal the searches' cache
   misses (the second search is served partly from the first one's cache,
   and the best-design rebuild runs on the coordinator, not on the pool),
   and none is still active. *)
let test_daemon_eval_accounting () =
  with_daemon @@ fun _ request ->
  let searches =
    List.map
      (fun seed ->
        match List.rev (request (search_line gemm8 { small with Sp.seed })) with
        | final :: _ ->
            (int_at [ "explored" ] final, int_at [ "stats"; "cache_misses" ] final)
        | [] -> Alcotest.fail "no response")
      [ 7; 8 ]
  in
  let explored, misses = List.split searches in
  Alcotest.(check bool) "the second search reused cached evaluations" true
    (List.nth misses 1 < List.nth explored 1);
  match request {|{"req":"status"}|} with
  | [ status ] ->
      Alcotest.(check int) "granted = sum of cache misses"
        (List.fold_left ( + ) 0 misses)
        (int_at [ "queue"; "evals_granted" ] status);
      Alcotest.(check int) "none active" 0 (int_at [ "queue"; "evals_active" ] status)
  | _ -> Alcotest.fail "expected one status response"

(* A scrape client that connects and sends nothing must not hold the
   metrics listener: the read of the request head times out and the
   exposition is still answered, within a few seconds. *)
let test_scrape_silent_client () =
  (* Without the timeout the listener answers only after this side closes,
     into a closed socket: EPIPE must fail the test, not kill the runner. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float client Unix.SO_RCVTIMEO 10.;
  let t0 = Unix.gettimeofday () in
  let listener = Thread.create Serve.Server.answer_scrape server in
  let ic = Unix.in_channel_of_descr client in
  let head =
    try input_line ic with End_of_file | Sys_error _ | Sys_blocked_io -> ""
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  close_in_noerr ic;
  Thread.join listener;
  Alcotest.(check string) "answered" "HTTP/1.0 200 OK\r" head;
  Alcotest.(check bool) "within a few seconds" true (elapsed < 5.)

let suite =
  ( "serve",
    [
      Alcotest.test_case "codec round-trips" `Quick test_codec_roundtrips;
      Alcotest.test_case "codec rejects malformed" `Quick
        test_codec_rejects_malformed;
      Alcotest.test_case "protocol parses requests" `Quick test_protocol_parse;
      Alcotest.test_case "protocol client round-trip" `Quick
        test_protocol_client_roundtrip;
      Alcotest.test_case "store round-trip" `Quick test_store_roundtrip;
      Alcotest.test_case "store version mismatch goes cold" `Quick
        test_store_version_mismatch_cold;
      Alcotest.test_case "store tolerates corruption" `Quick
        test_store_corruption_tolerated;
      Alcotest.test_case "jobs lifecycle" `Quick test_jobs_lifecycle;
      Alcotest.test_case "warm store replays bit-identical" `Quick
        test_store_warm_run_bit_identical;
      Alcotest.test_case "warm store replays the surrogate bit-identical" `Quick
        test_store_warm_run_surrogate;
      Alcotest.test_case "search rejects negative configs" `Quick
        test_search_rejects_negative_config;
      Alcotest.test_case "search resolves names" `Quick
        test_search_resolves_names;
      Alcotest.test_case "daemon search matches local" `Quick
        test_daemon_matches_local;
      Alcotest.test_case "daemon counts its evaluations" `Quick
        test_daemon_eval_accounting;
      Alcotest.test_case "silent scrape client times out" `Quick
        test_scrape_silent_client;
    ] )
