module Hb = Ufork_util.Hb

type tid = int

(* Min-heap of pending events keyed by (time, seq), in parallel arrays;
   seq breaks ties FIFO so the schedule is deterministic. Native-int
   keys and a preallocated action column keep push and pop
   allocation-free. *)
module Heap = struct
  type t = {
    mutable time : int array;
    mutable seq : int array;
    mutable action : (unit -> unit) array;
    mutable len : int;
  }

  let nop () = ()

  (* Small at boot (a machine is created per experiment point and many
     never hold more than a few timers); [grow] doubles. *)
  let create () =
    { time = Array.make 16 0; seq = Array.make 16 0;
      action = Array.make 16 nop; len = 0 }

  let grow h =
    let n = Array.length h.time in
    let time = Array.make (2 * n) 0 in
    Array.blit h.time 0 time 0 n;
    h.time <- time;
    let seq = Array.make (2 * n) 0 in
    Array.blit h.seq 0 seq 0 n;
    h.seq <- seq;
    let action = Array.make (2 * n) nop in
    Array.blit h.action 0 action 0 n;
    h.action <- action

  let move h ~src ~dst =
    h.time.(dst) <- h.time.(src);
    h.seq.(dst) <- h.seq.(src);
    h.action.(dst) <- h.action.(src)

  let push h time seq action =
    if h.len = Array.length h.time then grow h;
    let i = ref h.len in
    h.len <- h.len + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 2 in
      let tp = h.time.(p) in
      if time < tp || (time = tp && seq < h.seq.(p)) then begin
        move h ~src:p ~dst:!i;
        i := p
      end
      else continue := false
    done;
    h.time.(!i) <- time;
    h.seq.(!i) <- seq;
    h.action.(!i) <- action

  (* No event at or before [target]? *)
  let min_time_exceeds h target = h.len = 0 || h.time.(0) > target

  (* Drop the top entry; callers read [time.(0)]/[action.(0)] first. *)
  let pop h =
    let n = h.len - 1 in
    h.len <- n;
    let time = h.time.(n) and seq = h.seq.(n) and action = h.action.(n) in
    h.action.(n) <- nop;
    if n > 0 then begin
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        if l >= n then continue := false
        else begin
          let r = l + 1 in
          let c =
            if
              r < n
              && (h.time.(r) < h.time.(l)
                 || (h.time.(r) = h.time.(l) && h.seq.(r) < h.seq.(l)))
            then r
            else l
          in
          let tc = h.time.(c) in
          if tc < time || (tc = time && h.seq.(c) < seq) then begin
            move h ~src:c ~dst:!i;
            i := c
          end
          else continue := false
        end
      done;
      h.time.(!i) <- time;
      h.seq.(!i) <- seq;
      h.action.(!i) <- action
    end
end

(* What a ready thread resumes into: its initial body or a suspended
   continuation. *)
type resume =
  | Start of (unit -> unit)
  | Cont of (unit, unit) Effect.Deep.continuation

type thread = {
  tid : tid;
  name : string;
  affinity : int; (* the pinned core, or -1 *)
  mutable home : int;
      (* The core this thread was last dispatched to (initially tid mod
         cores): where an unpinned ready entry asks to run before the
         dispatcher steals it for another idle core. *)
  mutable cur_core : int;
      (* The core the thread occupies, or -1; threads migrate across
         yields, so handlers read this rather than close over a core. *)
  mutable resume : resume;
      (* Set whenever the thread leaves its core or starts an advance:
         what the next dispatch or advance completion resumes. *)
  mutable stamp : int; (* ready-sequence stamp while queued *)
  mutable advance_by : int; (* cycles of the advance being handled *)
}

type t = {
  busy : bool array; (* per core *)
  mutable idle : int; (* cores not busy *)
  events : Heap.t;
  mutable now : int;
  mutable advanced : int;
      (* Clock, busy total and deadline are native ints (62 bits of
         cycles is decades of simulated time); the API converts to
         int64 at the edges. *)
  mutable seq : int;
  unpinned : thread Queue.t;
      (* Unpinned ready threads in stamp order; each runs on its home
         core when idle, else on the first idle core above it. *)
  pinned : thread Queue.t array;
      (* Per core: ready threads pinned to it, in stamp order. *)
  mutable pinned_count : int;
  mutable ready_seq : int;
  mutable ready_count : int;
  mutable steals : int;
  mutable live : int;
  mutable blocked : int;
  mutable next_tid : int;
  mutable in_event : bool;
  mutable until_limit : int;
      (* [run]'s [?until] deadline ([max_int] when none), mirrored here
         so the advance fast path never passes time inline beyond a
         truncation point the run loop would have stopped at. *)
  mutable inline_depth : int;
      (* Live inline-advance resumes on the host stack right now. Each
         inline [continue] nests native frames until the next slow-path
         suspension unwinds the whole chain, so the fast path bails to
         the heap once the chain gets deep — same schedule, bounded
         stack. *)
  mutable active_resumes : int;
      (* Distinct thread stretches live on the host stack: one per
         [exec] or advance-completion resume (inline resumes continue
         the same stretch and don't count). Normally 1 while a thread
         runs; 2+ when a wake outside event processing dispatches a
         nested thread. The advance fast path requires exactly 1 — a
         thread nested below is still positioned at the old [now], so
         passing time inline over it would shift where it resumes. *)
  mutable running_tid : tid;
  mutable running_core : int;
  mutable running_name : string;
      (* The thread currently executing host code on this engine, or
         (-1, -1, "") between threads. Plain fields mirroring
         Get_tid/Get_core and the thread's name, so the per-event
         accounting path can read them without an effect dispatch.
         Saved and restored around every resume: a running thread that
         calls [wake] can dispatch a nested [exec] on an idle core, so
         plain reset to -1 would clobber the outer thread's identity. *)
}

type waker = { engine : t; thread : thread; mutable pending : bool }

(* Cap on nested inline-advance resumes (see [inline_depth]): deep
   enough that single-threaded stretches almost never fall back, shallow
   enough that the native stack stays bounded. *)
let max_inline_depth = 1024

type _ Effect.t +=
  | Advance : int64 -> unit Effect.t
  | Yield : unit Effect.t
  | Suspend : (waker -> unit) -> unit Effect.t
  | Get_time : int64 Effect.t
  | Get_tid : tid Effect.t
  | Get_core : int Effect.t

let max_cores = 1024

let create ?(cores = 4) () =
  if cores <= 0 then invalid_arg "Engine.create: cores <= 0";
  if cores > max_cores then invalid_arg "Engine.create: cores > 1024";
  {
    busy = Array.make cores false;
    idle = cores;
    events = Heap.create ();
    now = 0;
    advanced = 0;
    seq = 0;
    unpinned = Queue.create ();
    pinned = Array.init cores (fun _ -> Queue.create ());
    pinned_count = 0;
    ready_seq = 0;
    ready_count = 0;
    steals = 0;
    live = 0;
    blocked = 0;
    next_tid = 0;
    in_event = false;
    until_limit = max_int;
    inline_depth = 0;
    active_resumes = 0;
    running_tid = -1;
    running_core = -1;
    running_name = "";
  }

let cores t = Array.length t.busy
let now t = Int64.of_int t.now
let advanced t = Int64.of_int t.advanced
let live_threads t = t.live
let blocked_threads t = t.blocked
let steals t = t.steals
let running_tid t = t.running_tid
let running_core t = t.running_core
let running_name t = t.running_name

(* Enqueue a ready thread (its [resume] already set): on its core's
   pinned FIFO when pinned, on the unpinned FIFO otherwise. The global
   ready-seq stamp orders entries across the FIFOs: dispatch runs them
   in stamp order. *)
let make_ready t thread =
  t.ready_seq <- t.ready_seq + 1;
  thread.stamp <- t.ready_seq;
  if thread.affinity >= 0 then begin
    Queue.push thread t.pinned.(thread.affinity);
    t.pinned_count <- t.pinned_count + 1
  end
  else Queue.push thread t.unpinned;
  t.ready_count <- t.ready_count + 1

let schedule t time action =
  t.seq <- t.seq + 1;
  Heap.push t.events time t.seq action

let release_core t thread =
  let c = thread.cur_core in
  if c < 0 then invalid_arg "Engine: thread has no core (engine bug)";
  t.busy.(c) <- false;
  t.idle <- t.idle + 1;
  thread.cur_core <- -1

(* The core stays busy until the advance completes. *)
let handle_advance t thread on_done k =
  let n = thread.advance_by in
  t.advanced <- t.advanced + n;
  let target = t.now + n in
  if
    t.ready_count = 0
    && t.active_resumes = 1
    && Heap.min_time_exceeds t.events target
    && target <= t.until_limit
    && t.inline_depth < max_inline_depth
  then begin
    (* Nothing — no ready thread, no event at or before [target], no
       [~until] deadline — can run before this advance completes, so the
       scheduled completion would be the very next thing the run loop
       pops. Pass time inline and keep the thread on its core, skipping
       the suspend/heap round-trip. Equal-time heap events hold an older
       seq stamp and must win, hence the strict [>] in the peek. *)
    t.now <- target;
    t.inline_depth <- t.inline_depth + 1;
    (* The slow path would resume this thread inside an event action,
       where [wake] defers dispatch to the run loop; mimic that, or a
       wake in the inlined stretch would dispatch immediately and
       reorder the schedule. *)
    let prev_in_event = t.in_event in
    t.in_event <- true;
    match Effect.Deep.continue k () with
    | () ->
        t.in_event <- prev_in_event;
        t.inline_depth <- t.inline_depth - 1
    | exception e ->
        t.in_event <- prev_in_event;
        t.inline_depth <- t.inline_depth - 1;
        raise e
  end
  else begin
    thread.resume <- Cont k;
    schedule t target on_done
  end

(* Run the thread's [resume] — on dispatch and at advance completion —
   bracketed by a save/set/restore of the running_* mirror fields, on
   the exception path too: a crashing thread must not leave a stale
   identity behind for host-side emissions to pick up. *)
let rec resume t thread =
  let prev_tid = t.running_tid
  and prev_core = t.running_core
  and prev_name = t.running_name in
  t.running_tid <- thread.tid;
  t.running_core <- thread.cur_core;
  t.running_name <- thread.name;
  t.active_resumes <- t.active_resumes + 1;
  match
    match thread.resume with
    | Cont k ->
        (* The deep handler installed at Start travels with the
           continuation. *)
        Effect.Deep.continue k ()
    | Start body -> start t thread body
  with
  | () ->
      t.active_resumes <- t.active_resumes - 1;
      t.running_tid <- prev_tid;
      t.running_core <- prev_core;
      t.running_name <- prev_name
  | exception e ->
      t.active_resumes <- t.active_resumes - 1;
      t.running_tid <- prev_tid;
      t.running_core <- prev_core;
      t.running_name <- prev_name;
      raise e

(* A thread's first dispatch: install its deep handler. The handlers
   for the per-event effects (Advance, Yield, Get_tid, Get_core) are
   allocated here once per thread, not once per effect. *)
and start t thread body =
  let on_done () = resume t thread in
  let on_advance = Some (fun k -> handle_advance t thread on_done k) in
  let on_yield =
    Some
      (fun k ->
        release_core t thread;
        thread.resume <- Cont k;
        make_ready t thread)
  in
  let on_tid = Some (fun k -> Effect.Deep.continue k thread.tid) in
  let on_core = Some (fun k -> Effect.Deep.continue k thread.cur_core) in
  Effect.Deep.match_with body ()
    {
      retc =
        (fun () ->
          t.live <- t.live - 1;
          release_core t thread);
      exnc =
        (fun e ->
          (* A crashing thread must not leave its core marked busy. *)
          t.live <- t.live - 1;
          release_core t thread;
          raise e);
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Advance n ->
              if n < 0L then
                (* Deliver the error at the perform site. *)
                Some
                  (fun k ->
                    Effect.Deep.discontinue k
                      (Invalid_argument "Engine.advance: negative"))
              else begin
                thread.advance_by <- Int64.to_int n;
                on_advance
              end
          | Yield -> on_yield
          | Suspend register ->
              Some
                (fun k ->
                  if Hb.on () then Hb.emit (Hb.Block { tid = thread.tid });
                  release_core t thread;
                  thread.resume <- Cont k;
                  t.blocked <- t.blocked + 1;
                  register { engine = t; thread; pending = true })
          | Get_time ->
              Some (fun k -> Effect.Deep.continue k (Int64.of_int t.now))
          | Get_tid -> on_tid
          | Get_core -> on_core
          | _ -> None);
    }

(* Run a thread fragment on a core until it suspends or finishes.
   Simulated time does not move while the OCaml code runs; it passes
   only through Advance/sleep. *)
let exec t core thread =
  t.busy.(core) <- true;
  t.idle <- t.idle - 1;
  thread.cur_core <- core;
  thread.home <- core;
  resume t thread

(* The idle core whose pinned FIFO has the oldest head, or -1. Only
   scanned while some pinned entry is ready. *)
let oldest_pinned t =
  let best = ref (-1) and best_stamp = ref max_int in
  for c = 0 to Array.length t.busy - 1 do
    let q = t.pinned.(c) in
    if (not t.busy.(c)) && not (Queue.is_empty q) then begin
      let s = (Queue.peek q).stamp in
      if s < !best_stamp then begin
        best := c;
        best_stamp := s
      end
    end
  done;
  !best

(* Dispatch ready threads to idle cores, globally oldest first: each
   step runs the lower-stamped of the unpinned head and the oldest
   pinned head whose core is idle. A pinned entry whose core is busy
   waits without shadowing anything behind it. An unpinned entry runs on
   its home core when idle; otherwise on the first idle core scanning
   upward from it — a steal that migrates and re-homes the thread. Both
   choices are functions of stamps and core ids alone, so the schedule
   (and every trace derived from it) is reproducible for a given seed
   and core count. *)
let dispatch t =
  let n = Array.length t.busy in
  let continue = ref true in
  while !continue && t.ready_count > 0 && t.idle > 0 do
    let pc = if t.pinned_count = 0 then -1 else oldest_pinned t in
    let u = t.unpinned in
    if
      (not (Queue.is_empty u))
      && (pc < 0 || (Queue.peek u).stamp < (Queue.peek t.pinned.(pc)).stamp)
    then begin
      let thread = Queue.pop u in
      t.ready_count <- t.ready_count - 1;
      let home = thread.home in
      let core =
        if not t.busy.(home) then home
        else begin
          let rec idle k =
            let c = (home + k) mod n in
            if t.busy.(c) then idle (k + 1) else c
          in
          t.steals <- t.steals + 1;
          let c = idle 1 in
          if Hb.on () then Hb.emit (Hb.Steal { tid = thread.tid; core = c });
          c
        end
      in
      exec t core thread
    end
    else if pc >= 0 then begin
      let thread = Queue.pop t.pinned.(pc) in
      t.pinned_count <- t.pinned_count - 1;
      t.ready_count <- t.ready_count - 1;
      exec t pc thread
    end
    else continue := false
  done

let enqueue_new t ?name ?affinity body =
  t.next_tid <- t.next_tid + 1;
  let name =
    match name with Some n -> n | None -> Printf.sprintf "t%d" t.next_tid
  in
  let affinity = match affinity with Some a -> a | None -> -1 in
  let home =
    (* Fresh unpinned threads spread across cores by tid so independent
       workloads (one forker per core) land on distinct cores without
       explicit affinity. *)
    if affinity >= 0 then affinity else t.next_tid mod Array.length t.busy
  in
  let thread =
    { tid = t.next_tid; name; affinity; home; cur_core = -1;
      resume = Start body; stamp = 0; advance_by = 0 }
  in
  t.live <- t.live + 1;
  make_ready t thread;
  if Hb.on () then
    Hb.emit (Hb.Spawn { parent = Hb.tid (); child = thread.tid });
  thread.tid

let spawn ?name ?affinity t body =
  (match affinity with
  | Some a when a < 0 || a >= cores t -> invalid_arg "Engine.spawn: affinity"
  | Some _ | None -> ());
  enqueue_new t ?name ?affinity body

let run ?until t =
  let limit =
    match until with
    | None -> max_int
    | Some u -> if u >= Int64.of_int max_int then max_int else Int64.to_int u
  in
  t.until_limit <- limit;
  dispatch t;
  let h = t.events in
  let continue = ref true in
  while !continue && h.Heap.len > 0 do
    let time = h.Heap.time.(0) in
    if time > limit then begin
      (* Stopped by the deadline: the clock moves up to it, never back. *)
      if limit > t.now then t.now <- limit;
      continue := false
    end
    else begin
      let action = h.Heap.action.(0) in
      Heap.pop h;
      t.now <- time;
      t.in_event <- true;
      action ();
      t.in_event <- false;
      dispatch t
    end
  done

(* In-thread operations. *)
let advance n = Effect.perform (Advance n)

(* The charging hot path ({!Trace.emit}) calls this before performing the
   {!advance} effect: under exactly the conditions where the effect
   handler's inline fast path would pass time without suspending (sole
   live resume, nothing ready, no heap event at or before the target, no
   [~until] deadline in between), passing time is pure field mutation —
   so skip the continuation capture entirely. [in_event] must already be
   set (it is, for any thread resumed by the run loop or by the inline
   fast path itself), or a [wake] later in the same stretch would
   dispatch immediately where the slow path — which always resumes inside
   an event action — would defer; the boot-time nested-exec case where it
   is not set falls back to the effect. Unlike the handler's inline path
   this consumes no native stack, so no depth cap applies. *)
let advance_direct t n =
  let target = t.now + n in
  if
    n >= 0 && t.in_event
    && t.ready_count = 0
    && t.active_resumes = 1
    && t.running_tid >= 0
    && target <= t.until_limit
    && Heap.min_time_exceeds t.events target
  then begin
    t.advanced <- t.advanced + n;
    t.now <- target;
    true
  end
  else false

let yield () = Effect.perform Yield
let suspend register = Effect.perform (Suspend register)
let current_time () = Effect.perform Get_time
let current_tid () = Effect.perform Get_tid
let current_core () = Effect.perform Get_core

let waker_pending w = w.pending
let waker_tid w = if w.pending then w.thread.tid else -1

let wake w =
  if not w.pending then invalid_arg "Engine.wake: waker already used";
  w.pending <- false;
  let t = w.engine in
  t.blocked <- t.blocked - 1;
  if Hb.on () then Hb.emit (Hb.Wake { by = Hb.tid (); target = w.thread.tid });
  make_ready t w.thread;
  (* A waker fired outside event processing (e.g. between runs) must
     kick the dispatcher itself; inside, the main loop dispatches after
     the current event completes. *)
  if not t.in_event then dispatch t

(* The happens-before bus needs the current simulated thread wherever a
   publisher sits (the frame pool in lib/mem cannot perform effects
   itself); install the provider once at link time. *)
let () =
  Hb.set_tid_provider (fun () ->
      match Effect.perform Get_tid with
      | tid -> tid
      | exception Effect.Unhandled _ -> -1)

let sleep n =
  if n < 0L then invalid_arg "Engine.sleep: negative";
  let t0 = current_time () in
  suspend (fun w ->
      schedule w.engine (Int64.to_int (Int64.add t0 n)) (fun () -> wake w))
