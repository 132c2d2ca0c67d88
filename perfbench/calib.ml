(* A fixed CPU and allocation workload, written against the standard
   library only, that the benchmark times between its jobs to track how
   fast the host runs at that moment (see README.md, "Host speed").

     calib.exe N    run the kernel N times; print each time in seconds *)

let kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 30_000 do
    Hashtbl.replace h (i * 7919 mod 100_003) (string_of_int i)
  done;
  let l = List.sort compare (List.init 30_000 (fun i -> i * 48271 mod 65_537)) in
  let a = Array.make 100_000 0. in
  for r = 0 to 4 do
    for i = 1 to Array.length a - 1 do
      a.(i) <- (a.(i - 1) *. 0.5) +. float_of_int (i + r)
    done
  done;
  ignore (Sys.opaque_identity (h, l, a))

let () =
  for _ = 1 to int_of_string Sys.argv.(1) do
    let t0 = Unix.gettimeofday () in
    kernel ();
    Printf.printf "%.9f\n" (Unix.gettimeofday () -. t0)
  done
