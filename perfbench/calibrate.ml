(* A fixed reference computation that does not use the simulator.

   Co-tenants on a shared host slow every process down by up to 2× for
   seconds at a time, which no statistic over one run's repetitions can
   remove. run.py times this kernel in its own process between
   repetitions and scales each repetition's host times by
   [nominal_s / measured], taking the faster of the two timings around
   it, so every repetition is reported at one reference speed: the
   speed at which the kernel takes [nominal_s]. The
   kernel has the simulator's host profile — hash tables, small
   allocations, pointer-sized random reads over a working set larger
   than the caches, and fresh pages filled the way simulated page
   frames are — and its code is part of the benchmark, so a change to
   the simulator cannot move it. *)

(* The reference speed host times are reported at. The 2-vCPU x86-64
   host the benchmark was tuned on measured 0.2–0.33 s for the kernel. *)
let nominal_s = 0.2

let kernel () =
  let n = 200_000 in
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3fffffff;
    !state
  in
  let h = Hashtbl.create 1024 in
  for i = 0 to n - 1 do
    Hashtbl.replace h (next () mod (4 * n)) (Bytes.create 48, i)
  done;
  let a = Array.init (2 * 1024 * 1024) Fun.id in
  let mask = Array.length a - 1 in
  let s = ref 0 in
  for _ = 1 to 2_000_000 do
    s := !s + a.(next () land mask)
  done;
  for _ = 1 to n do
    match Hashtbl.find_opt h (next () mod (4 * n)) with
    | Some (_, i) -> s := !s + i
    | None -> ()
  done;
  (* 48 MB of fresh 4 KiB pages, zeroed and then copied once. *)
  let pages = Array.init 12_288 (fun _ -> Bytes.make 4096 '\000') in
  Array.iteri
    (fun i p -> if i > 0 then Bytes.blit pages.(i - 1) 0 p 0 4096)
    pages;
  s := !s + Bytes.length pages.(next () mod Array.length pages);
  Sys.opaque_identity !s

let seconds () =
  let t0 = Hostclock.now_ns () in
  ignore (kernel ());
  float_of_int (Hostclock.now_ns () - t0) /. 1e9
