(* Host-time attribution.

   The simulator runs every simulated thread as an effect-based green
   thread on one host thread, so at any instant exactly one owner holds
   the host CPU: a harness phase, the engine, application code of some
   simulated thread, or one of its Api calls. The clock keeps a cursor
   on the current owner and, whenever ownership changes, charges the
   host nanoseconds and minor-heap words since the previous change to
   the owner that is leaving. The buckets therefore partition the time
   between [create] and [stop] exactly: nothing is counted twice and the
   remainder is a bucket of its own, never a negative difference.

   Only boundaries the benchmark can see from outside switch the cursor
   (phase entry/exit, Api call entry/exit, simulated thread start/end).
   A call that blocks keeps the cursor until the next visible boundary,
   so the engine's context switch and the resumed thread's kernel tail
   are charged to the call that blocked — and never to a call of another
   thread, which is what makes per-class time self time. When a thread
   ends there is no call to charge: the cursor is left pending and the
   interval goes to the call whose return is the next boundary (the
   resumed thread's kernel tail, e.g. a parent's wait reaping the child),
   or to the engine if the next boundary is anything else. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* The kernel's high-water mark of this process's resident set (Linux
   VmHWM), in MB; nan where the kernel does not report it. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | line -> (
            match Scanf.sscanf line "VmHWM: %d kB" Fun.id with
            | kb -> float_of_int kb *. 1024. /. 1e6
            | exception (Scanf.Scan_failure _ | End_of_file | Failure _) ->
                scan ())
        | exception End_of_file -> nan
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

(* Bucket indices. [harness] is everything outside a named phase;
   [engine] is time inside [System.run] that no simulated thread owns.
   [pending] is not a bucket: see [switch]. *)
let pending = -1
let harness = 0
let boot = 1
let start = 2
let engine = 3
let app = 4
let api_fork = 5
let api_wait = 6
let api_exit = 7
let api_proc = 8
let api_alloc = 9
let api_mem = 10
let api_compute = 11
let api_ipc = 12
let api_file = 13
let checker = 14
let audit = 15
let verify = 16

let names =
  [|
    "harness"; "system.boot"; "system.start"; "engine"; "app"; "api.fork";
    "api.wait"; "api.exit"; "api.proc"; "api.alloc"; "api.mem";
    "api.compute"; "api.ipc"; "api.file"; "checker.sweep"; "trace.audit";
    "rdb.verify";
  |]

let api_classes =
  [
    api_fork; api_wait; api_exit; api_proc; api_alloc; api_mem; api_compute;
    api_ipc; api_file;
  ]

type t = {
  ns : int array;
  words : float array;
  calls : int array;
  mutable cur : int;
  mutable mark_ns : int;
  mutable mark_words : float;
  t0 : int;
  mutable stopped_at : int option;
}

let create () =
  let n = Array.length names in
  let t0 = now_ns () in
  {
    ns = Array.make n 0;
    words = Array.make n 0.;
    calls = Array.make n 0;
    cur = harness;
    mark_ns = t0;
    mark_words = Gc.minor_words ();
    t0;
    stopped_at = None;
  }

(* Charge the interval since the last switch to the current owner (to
   [resolve] if the owner is [pending]) and hand the cursor to [b];
   returns the previous owner. *)
let switch ?(resolve = engine) t b =
  let now = now_ns () in
  let w = Gc.minor_words () in
  let c = if t.cur = pending then resolve else t.cur in
  t.ns.(c) <- t.ns.(c) + (now - t.mark_ns);
  t.words.(c) <- t.words.(c) +. (w -. t.mark_words);
  t.mark_ns <- now;
  t.mark_words <- w;
  t.cur <- b;
  c

(* Run [f] as phase [b], restoring the previous owner afterwards. *)
let phase t b f =
  let prev = switch t b in
  match f () with
  | v ->
      ignore (switch t prev);
      v
  | exception e ->
      ignore (switch t prev);
      raise e

(* One Api call of class [b] by a simulated thread: on return (or
   unwind) that thread is back in its own application code. *)
let call t b f =
  t.calls.(b) <- t.calls.(b) + 1;
  ignore (switch t b);
  match f () with
  | v ->
      ignore (switch ~resolve:b t app);
      v
  | exception e ->
      ignore (switch ~resolve:b t app);
      raise e

let stop t =
  ignore (switch t harness);
  t.stopped_at <- Some t.mark_ns

let elapsed_ns t =
  match t.stopped_at with
  | Some s -> s - t.t0
  | None -> invalid_arg "Hostclock.elapsed_ns: clock still running"

let ns t b = t.ns.(b)
let words t b = t.words.(b)
let calls t b = t.calls.(b)
let total_ns t = Array.fold_left ( + ) 0 t.ns
