(* Workload dse-kernels: cold in-process design-space exploration of the
   paper's PolyBench kernels, source -> Pareto frontier -> emitted C++ of the
   best design, at the scalehls-dse CLI defaults and one worker. *)

open Mir
open Scalehls
module P = Models.Polybench

let inputs = [ (P.Bicg, 64); (P.Gemm, 64); (P.Gesummv, 64); (P.Syr2k, 64); (P.Syrk, 64); (P.Trmm, 16) ]

(* The scalehls-dse CLI defaults (exhaustive strategy). *)
let samples = 32
let iterations = 80
let window = Dse.default_window
let platform = Vhls.Platform.xc7z020

(* Every search uses the CLI's default DSE seed and the jobs run in a fixed
   order; the run seed draws the output check's inputs. Runs with different
   seeds therefore do the same work. *)
let dse_seed = 42

let config_json =
  Obs.Json.Obj
    [
      ("strategy", Obs.Json.String "exhaustive");
      ("samples", Obs.Json.Int samples);
      ("iterations", Obs.Json.Int iterations);
      ("window", Obs.Json.Int window);
      ("jobs", Obs.Json.Int 1);
      ("dse_seed", Obs.Json.Int dse_seed);
      ("platform", Obs.Json.String "xc7z020");
    ]

let span name f = Obs.Trace.with_span ~cat:"bench" name f

(* The work before the timed loop: parse and raise every input. The setup
   probe runs this in a fresh process, so its time includes process start
   and library initialisation. *)
let prepare () =
  List.map
    (fun (k, n) ->
      let ctx = Ir.Ctx.create () in
      (k, n, Pipeline.compile_c ctx (P.source k ~n)))
    inputs

type job = {
  kernel : P.kernel;
  size : int;
  wall : float;
  first_frontier : float;
  frontend_s : float;
  ops_out : int;
  emit_s : float;
  result : Dse.result;
  cpp : string;
  source_module : Ir.op;
  cache : Dse.eval_cache;
  memos : Estimator.memos;
}

let count_ops m = Walk.fold_ops (fun n _ -> n + 1) 0 m

let run_job (kernel, size) =
  let top = P.name kernel in
  let t0 = Util.now () in
  let first = ref 0. in
  let cache : Dse.eval_cache = Eval_cache.create () in
  let memos = Estimator.create_memos () in
  let (m, frontend_s, result, cpp, emit_s) =
    span "bench.job" (fun () ->
        let ctx = Ir.Ctx.create () in
        let tf = Util.now () in
        let m = span "bench.frontend" (fun () -> Pipeline.compile_c ctx (P.source kernel ~n:size)) in
        let frontend_s = Util.since tf in
        let result =
          span "bench.dse" (fun () ->
              Dse.run ~samples ~iterations ~seed:dse_seed ~jobs:1 ~window ~strategy:Dse.exhaustive ~cache ~memos
                ~on_frontier:(fun _ _ -> if !first = 0. then first := Util.since t0)
                ctx m ~top ~platform)
        in
        let te = Util.now () in
        let cpp = span "bench.emit" (fun () -> Emit.Emit_cpp.emit_module result.Dse.module_) in
        (m, frontend_s, result, cpp, Util.since te))
  in
  let wall = Util.since t0 in
  {
    kernel;
    size;
    wall;
    first_frontier = (if !first = 0. then wall else !first);
    frontend_s;
    ops_out = count_ops m;
    emit_s;
    result;
    cpp;
    source_module = m;
    cache;
    memos;
  }

(* Warm replay of a finished job against its own evaluation cache and band
   memo: the same search answered from cache, as a warm store serves it.
   Returns the last of [reps] replays' results and every replay's seconds. *)
let warm_replay ~reps j =
  let top = P.name j.kernel in
  let once () =
    let t0 = Util.now () in
    let r =
      span "bench.warm" (fun () ->
          let ctx = Ir.Ctx.create () in
          let m = Pipeline.compile_c ctx (P.source j.kernel ~n:j.size) in
          let r =
            Dse.run ~samples ~iterations ~seed:dse_seed ~jobs:1 ~window ~strategy:Dse.exhaustive
              ~cache:j.cache ~memos:j.memos ctx m ~top ~platform
          in
          ignore (Emit.Emit_cpp.emit_module r.Dse.module_);
          r)
    in
    (r, Util.since t0)
  in
  let runs = List.init reps (fun _ -> once ()) in
  (fst (List.hd (List.rev runs)), List.map snd runs)

let frontier_sig (r : Dse.result) =
  List.map (fun (e : Dse.evaluated) -> (e.Dse.point, e.Dse.estimate)) r.Dse.pareto

(* ---- Output check: the emitted design against the PolyBench source ------------ *)

(* A C++ harness that compiles the reference source (renamed) beside the
   emitted design, runs both on the same seeded inputs and compares every
   array argument within [Float_compare.default_eps] relative error. Exit 0
   iff they agree; prints the largest relative difference. *)
let harness ~seed kernel ~n =
  let top = P.name kernel in
  let shapes = P.arg_shapes kernel ~n in
  let b = Buffer.create 4096 in
  let pr fmt = Printf.bprintf b fmt in
  pr "#include <stdio.h>\n#include <math.h>\n#define %s ref_%s\n%s\n#undef %s\n#include \"design.cpp\"\n" top top
    (P.source kernel ~n) top;
  pr "static unsigned long long st = %dULL;\n" (seed land 0x3fffffff);
  pr
    "static float rnd(void) { st = st * 6364136223846793005ULL + 1442695040888963407ULL; return (float)((st >> 33) %% 2001) / 1000.0f - 1.0f; }\n";
  pr "static double worst = 0; static int bad = 0;\n";
  pr
    "static void cmp(const float *x, const float *y, int len) { for (int i = 0; i < len; i++) { double a = x[i], r = y[i];\n\
    \  if (isfinite(a) && isfinite(r)) { double d = fabs(a - r) / (1.0 + fabs(r)); if (d > worst) worst = d; if (a != r && fabs(a - r) > %.17g * (1.0 + fabs(r))) bad = 1; }\n\
    \  else if (!(isnan(a) && isnan(r)) && a != r) bad = 1; } }\n"
    Float_compare.default_eps;
  pr "int main(void) {\n";
  let dims_str d = String.concat "" (List.map (Printf.sprintf "[%d]") d) in
  let numel d = List.fold_left ( * ) 1 d in
  List.iteri
    (fun i shape ->
      match shape with
      | None -> pr "  float s%d = rnd();\n" i
      | Some d ->
          pr "  static float r%d%s, d%d%s;\n" i (dims_str d) i (dims_str d);
          pr "  for (int k = 0; k < %d; k++) { float v = rnd(); ((float *)r%d)[k] = v; ((float *)d%d)[k] = v; }\n"
            (numel d) i i)
    shapes;
  let args pre =
    String.concat ", "
      (List.mapi (fun i s -> match s with None -> Printf.sprintf "s%d" i | Some _ -> Printf.sprintf "%s%d" pre i) shapes)
  in
  pr "  ref_%s(%s);\n  %s(%s);\n" top (args "r") top (args "d");
  List.iteri
    (fun i s ->
      match s with
      | Some d -> pr "  cmp((const float *)d%d, (const float *)r%d, %d);\n" i i (numel d)
      | None -> ())
    shapes;
  pr "  printf(\"%%.9g\\n\", worst);\n  return bad;\n}\n";
  Buffer.contents b

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* Run [prog args] with stdout/stderr to [log]; the exit code. *)
let run_cmd ~log prog args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () ->
        Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin fd fd)
  in
  match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> 255

(* Compile and run the harness for one job; [Ok maxrel] or [Error why]. *)
let check_emitted ~workdir ~seed j =
  let dir = Filename.concat workdir (Printf.sprintf "%s-%d" (P.name j.kernel) j.size) in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  write_file (Filename.concat dir "design.cpp") j.cpp;
  write_file (Filename.concat dir "harness.cpp") (harness ~seed j.kernel ~n:j.size);
  let exe = Filename.concat dir "harness" and log = Filename.concat dir "log.txt" in
  match run_cmd ~log "g++" [ "-O1"; "-w"; "-o"; exe; Filename.concat dir "harness.cpp" ] with
  | 0 -> (
      let out = Filename.concat dir "out.txt" in
      match run_cmd ~log:out exe [] with
      | 0 -> Ok (float_of_string (String.trim (Util.read_file out)))
      | c -> Error (Printf.sprintf "emitted design disagrees with the reference (exit %d): %s" c (String.trim (Util.read_file out))))
  | c -> Error (Printf.sprintf "g++ failed (exit %d), see %s" c log)
