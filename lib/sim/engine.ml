module Hb = Ufork_util.Hb

type tid = int

(* Min-heap of pending events keyed by (time, seq), in parallel arrays;
   seq breaks ties FIFO so the schedule is deterministic. The action
   column says what an event does: a tid [>= 0] ends that thread's
   advance and resumes it, and [lnot w] (negative) fires the sleep
   timer of waker [w]. Every column holds native ints, so push, pop and
   the sifts are plain stores: no closure and no write barrier. *)
module Heap = struct
  type t = {
    mutable time : int array;
    mutable seq : int array;
    mutable action : int array;
    mutable len : int;
  }

  (* Small at boot (a machine is created per experiment point and many
     never hold more than a few timers); [grow] doubles. *)
  let create () =
    { time = Array.make 16 0; seq = Array.make 16 0;
      action = Array.make 16 0; len = 0 }

  let grow h =
    let n = Array.length h.time in
    let double a =
      let b = Array.make (2 * n) 0 in
      Array.blit a 0 b 0 n;
      b
    in
    h.time <- double h.time;
    h.seq <- double h.seq;
    h.action <- double h.action

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
  [@@inline]

  (* Drop the top entry; callers read [time.(0)]/[action.(0)] first. *)
  let pop h =
    let n = h.len - 1 in
    h.len <- n;
    let time = h.time.(n) and seq = h.seq.(n) and action = h.action.(n) in
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

(* A waker is the parked thread's tid in the low [tid_bits] bits and its
   park count above them: unique over the engine's life, since tids are
   never reused and a thread's count only grows, so a used or stale
   waker can never match a later park — of its own thread or of any
   other. *)
type waker = int

let tid_bits = 30
let tid_mask = (1 lsl tid_bits) - 1
let no_waker = -1

type _ Effect.t +=
  | Advance : unit Effect.t
  | Yield : unit Effect.t
  | Park : unit Effect.t
  | Get_time : int64 Effect.t
  | Get_tid : tid Effect.t
  | Get_core : int Effect.t
  | Never : unit Effect.t

(* The [cont] of a thread that has not run yet: a continuation captured
   once at module initialisation and never resumed, so a thread record
   needs no option box around the continuation it resumes. *)
let not_started : (unit, unit) Effect.Deep.continuation =
  let k : (unit, unit) Effect.Deep.continuation option ref = ref None in
  Effect.Deep.match_with Effect.perform Never
    {
      retc = ignore;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Never ->
              Some
                (fun (c : (a, unit) Effect.Deep.continuation) -> k := Some c)
          | _ -> None);
    };
  Option.get !k

type thread = {
  tid : tid;
  name : string;
  affinity : int; (* the pinned core, or -1 *)
  body : unit -> unit; (* what the first dispatch runs *)
  mutable home : int;
      (* The core this thread was last dispatched to (initially tid mod
         cores): where an unpinned ready entry asks to run before the
         dispatcher steals it for another idle core. *)
  mutable cur_core : int;
      (* The core the thread occupies, or -1; threads migrate across
         yields, so handlers read this rather than close over a core. *)
  mutable cont : (unit, unit) Effect.Deep.continuation;
      (* What the next dispatch or advance completion resumes:
         [not_started] until the first dispatch, then set whenever the
         thread leaves its core or starts a scheduled advance. *)
  mutable stamp : int; (* ready-sequence stamp while queued *)
  mutable parks : int; (* parks so far: the high half of its wakers *)
  mutable waker : waker; (* the waker it is parked on, or [no_waker] *)
}

(* The filler of every free slot of a thread table. *)
let no_thread =
  {
    tid = -1;
    name = "";
    affinity = -1;
    body = ignore;
    home = 0;
    cur_core = -1;
    cont = not_started;
    stamp = 0;
    parks = 0;
    waker = no_waker;
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
  mutable threads : thread array;
      (* Live threads by tid; a finished thread's slot goes back to
         [no_thread], so the table keeps no body or continuation alive.
         The heap, the ready FIFOs and the wakers name threads by tid. *)
  unpinned : Intq.t;
      (* Unpinned ready tids in stamp order; each runs on its home core
         when idle, else on the first idle core above it. *)
  pinned : Intq.t array;
      (* Per core: ready tids pinned to it, in stamp order. *)
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
      (* The thread currently executing host code on this engine, or
         (-1, -1) between threads. Plain fields mirroring Get_tid and
         Get_core, so the per-event accounting path can read them
         without an effect dispatch; the effect handlers read the
         performing thread from them too. Saved and restored around
         every resume: a running thread that calls [wake] can dispatch
         a nested [exec] on an idle core, so plain reset to -1 would
         clobber the outer thread's identity. *)
  mutable advance_by : int;
      (* The cycles of the advance being performed: [advance] sets it
         just before performing the constant [Advance] effect. *)
  mutable handler : (unit, unit) Effect.Deep.handler;
      (* One handler for every thread of the engine, built once. *)
}

(* Cap on nested inline-advance resumes (see [inline_depth]): deep
   enough that single-threaded stretches almost never fall back, shallow
   enough that the native stack stays bounded. *)
let max_inline_depth = 1024
let max_cores = 1024

(* The placeholder until [create] installs the engine's own handler. *)
let no_handler : (unit, unit) Effect.Deep.handler =
  { retc = ignore; exnc = raise; effc = (fun _ -> None) }

let cores t = Array.length t.busy
let now t = Int64.of_int t.now
let advanced t = Int64.of_int t.advanced
let live_threads t = t.live
let blocked_threads t = t.blocked
let steals t = t.steals
let running_tid t = t.running_tid
let running_core t = t.running_core

let running_name t =
  if t.running_tid < 0 then "" else t.threads.(t.running_tid).name

(* The thread running on this engine, for the operations only a thread
   may perform. *)
let running t what =
  if t.running_tid < 0 then invalid_arg (what ^ ": no running thread");
  t.threads.(t.running_tid)

(* Enqueue a ready thread (its [cont] already set, or not started): on
   its core's pinned FIFO when pinned, on the unpinned FIFO otherwise.
   The global ready-seq stamp orders entries across the FIFOs: dispatch
   runs them in stamp order. *)
let make_ready t thread =
  t.ready_seq <- t.ready_seq + 1;
  thread.stamp <- t.ready_seq;
  if thread.affinity >= 0 then begin
    Intq.push t.pinned.(thread.affinity) thread.tid;
    t.pinned_count <- t.pinned_count + 1
  end
  else Intq.push t.unpinned thread.tid;
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

(* A thread's last step, returning or raising: a crashing thread must
   not leave its core marked busy either. *)
let finish t =
  let thread = t.threads.(t.running_tid) in
  t.live <- t.live - 1;
  release_core t thread;
  t.threads.(thread.tid) <- no_thread

(* The core stays busy until the advance completes. *)
let handle_advance t k =
  let n = t.advance_by in
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
    let thread = t.threads.(t.running_tid) in
    thread.cont <- k;
    schedule t target thread.tid
  end

(* The engine's one effect handler. The performing thread is the running
   one, so the per-effect closures are built here once per engine, not
   once per thread or per effect. *)
let make_handler t : (unit, unit) Effect.Deep.handler =
  let on_advance = Some (fun k -> handle_advance t k) in
  let on_yield =
    Some
      (fun k ->
        let thread = t.threads.(t.running_tid) in
        release_core t thread;
        thread.cont <- k;
        make_ready t thread)
  in
  let on_park =
    Some
      (fun k ->
        let thread = t.threads.(t.running_tid) in
        if Hb.on () then Hb.emit (Hb.Block { tid = thread.tid });
        release_core t thread;
        thread.cont <- k;
        t.blocked <- t.blocked + 1)
  in
  let on_time = Some (fun k -> Effect.Deep.continue k (Int64.of_int t.now)) in
  let on_tid = Some (fun k -> Effect.Deep.continue k t.running_tid) in
  let on_core = Some (fun k -> Effect.Deep.continue k t.running_core) in
  {
    retc = (fun () -> finish t);
    exnc =
      (fun e ->
        finish t;
        raise e);
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) Effect.Deep.continuation -> unit) option ->
        match eff with
        | Advance -> on_advance
        | Yield -> on_yield
        | Park -> on_park
        | Get_time -> on_time
        | Get_tid -> on_tid
        | Get_core -> on_core
        | _ -> None);
  }

let create ?(cores = 4) () =
  if cores <= 0 then invalid_arg "Engine.create: cores <= 0";
  if cores > max_cores then invalid_arg "Engine.create: cores > 1024";
  let t =
    {
      busy = Array.make cores false;
      idle = cores;
      events = Heap.create ();
      now = 0;
      advanced = 0;
      seq = 0;
      threads = [||];
      unpinned = Intq.create ();
      pinned = Array.init cores (fun _ -> Intq.create ());
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
      advance_by = 0;
      handler = no_handler;
    }
  in
  t.handler <- make_handler t;
  t

(* Run the thread — its body on the first dispatch, its continuation
   after — on dispatch and at advance completion, bracketed by a
   save/set/restore of the running_* mirror fields, on the exception
   path too: a crashing thread must not leave a stale identity behind
   for host-side emissions to pick up. *)
let resume t thread =
  let prev_tid = t.running_tid and prev_core = t.running_core in
  t.running_tid <- thread.tid;
  t.running_core <- thread.cur_core;
  t.active_resumes <- t.active_resumes + 1;
  match
    if thread.cont == not_started then
      Effect.Deep.match_with thread.body () t.handler
    else
      (* The handler installed at the first dispatch travels with the
         continuation. *)
      Effect.Deep.continue thread.cont ()
  with
  | () ->
      t.active_resumes <- t.active_resumes - 1;
      t.running_tid <- prev_tid;
      t.running_core <- prev_core
  | exception e ->
      t.active_resumes <- t.active_resumes - 1;
      t.running_tid <- prev_tid;
      t.running_core <- prev_core;
      raise e

(* Run a thread fragment on a core until it suspends or finishes.
   Simulated time does not move while the OCaml code runs; it passes
   only through Advance/sleep. *)
let exec t core thread =
  t.busy.(core) <- true;
  t.idle <- t.idle - 1;
  thread.cur_core <- core;
  thread.home <- core;
  resume t thread

let head_stamp t q = t.threads.(Intq.peek q).stamp

(* The idle core whose pinned FIFO has the oldest head, or -1. Only
   scanned while some pinned entry is ready. *)
let oldest_pinned t =
  let best = ref (-1) and best_stamp = ref max_int in
  for c = 0 to Array.length t.busy - 1 do
    let q = t.pinned.(c) in
    if (not t.busy.(c)) && not (Intq.is_empty q) then begin
      let s = head_stamp t q in
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
      (not (Intq.is_empty u))
      && (pc < 0 || head_stamp t u < head_stamp t t.pinned.(pc))
    then begin
      let thread = t.threads.(Intq.pop u) in
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
      let thread = t.threads.(Intq.pop t.pinned.(pc)) in
      t.pinned_count <- t.pinned_count - 1;
      t.ready_count <- t.ready_count - 1;
      exec t pc thread
    end
    else continue := false
  done

(* Grown by doubling; every new slot starts as the long-lived
   [no_thread], so a growth past the young-allocation limit allocates
   directly in the major heap without first emptying the minor one. *)
let ensure_slot t tid =
  let n = Array.length t.threads in
  if tid >= n then begin
    let size = ref (Int.max 16 (2 * n)) in
    while !size <= tid do
      size := 2 * !size
    done;
    let threads = Array.make !size no_thread in
    Array.blit t.threads 0 threads 0 n;
    t.threads <- threads
  end

let spawn ?name ?affinity t body =
  (match affinity with
  | Some a when a < 0 || a >= cores t -> invalid_arg "Engine.spawn: affinity"
  | Some _ | None -> ());
  t.next_tid <- t.next_tid + 1;
  let tid = t.next_tid in
  if tid > tid_mask then failwith "Engine.spawn: thread ids exhausted";
  let name =
    match name with Some n -> n | None -> Printf.sprintf "t%d" tid
  in
  let affinity = match affinity with Some a -> a | None -> -1 in
  let home =
    (* Fresh unpinned threads spread across cores by tid so independent
       workloads (one forker per core) land on distinct cores without
       explicit affinity. *)
    if affinity >= 0 then affinity else tid mod Array.length t.busy
  in
  let thread =
    { tid; name; affinity; body; home; cur_core = -1; cont = not_started;
      stamp = 0; parks = 0; waker = no_waker }
  in
  ensure_slot t tid;
  t.threads.(tid) <- thread;
  t.live <- t.live + 1;
  make_ready t thread;
  if Hb.on () then Hb.emit (Hb.Spawn { parent = Hb.tid (); child = tid });
  tid

(* {2 Waking} *)

(* The thread parked on [w], or [no_thread] once [w] is used or stale. *)
let parked t w =
  let tid = w land tid_mask in
  if w < 0 || tid >= Array.length t.threads then no_thread
  else
    let thread = t.threads.(tid) in
    if thread.waker = w then thread else no_thread

let waker_pending t w = parked t w != no_thread
let waker_tid t w = if waker_pending t w then w land tid_mask else -1

let wake t w =
  let thread = parked t w in
  if thread == no_thread then invalid_arg "Engine.wake: waker already used";
  thread.waker <- no_waker;
  t.blocked <- t.blocked - 1;
  if Hb.on () then Hb.emit (Hb.Wake { by = Hb.tid (); target = thread.tid });
  make_ready t thread;
  (* A waker fired outside event processing (e.g. between runs) must
     kick the dispatcher itself; inside, the main loop dispatches after
     the current event completes. *)
  if not t.in_event then dispatch t

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
      if action >= 0 then resume t t.threads.(action)
      else wake t (lnot action);
      t.in_event <- false;
      dispatch t
    end
  done

(* {2 In-thread operations} *)

(* Passing time inline, without the effect, is pure field mutation under
   exactly the conditions where the effect handler's inline path would
   pass it without suspending: sole live resume, nothing ready, no heap
   event at or before the target, no [~until] deadline in between.
   [in_event] must already be set (it is, for any thread resumed by the
   run loop or by the inline path itself), or a [wake] later in the same
   stretch would dispatch immediately where the slow path — which
   always resumes inside an event action — would defer; the boot-time
   nested-exec case where it is not set takes the effect. Unlike the
   handler's inline path this consumes no native stack, so no depth cap
   applies. Otherwise the cycles go through [advance_by] and the
   constant effect, so an advance boxes nothing. *)
let advance t n =
  if n < 0 then invalid_arg "Engine.advance: negative";
  let target = t.now + n in
  if
    t.in_event
    && t.ready_count = 0
    && t.active_resumes = 1
    && t.running_tid >= 0
    && target <= t.until_limit
    && Heap.min_time_exceeds t.events target
  then begin
    t.advanced <- t.advanced + n;
    t.now <- target
  end
  else begin
    t.advance_by <- n;
    Effect.perform Advance
  end

let yield () = Effect.perform Yield
let current_time () = Effect.perform Get_time
let current_tid () = Effect.perform Get_tid
let current_core () = Effect.perform Get_core

let waker t =
  let thread = running t "Engine.waker" in
  ((thread.parks + 1) lsl tid_bits) lor thread.tid

let park t =
  let thread = running t "Engine.park" in
  thread.parks <- thread.parks + 1;
  thread.waker <- (thread.parks lsl tid_bits) lor thread.tid;
  Effect.perform Park

(* The happens-before bus needs the current simulated thread wherever a
   publisher sits (the frame pool in lib/mem cannot perform effects
   itself); install the provider once at link time. *)
let () =
  Hb.set_tid_provider (fun () ->
      match Effect.perform Get_tid with
      | tid -> tid
      | exception Effect.Unhandled _ -> -1)

let sleep t n =
  if n < 0L then invalid_arg "Engine.sleep: negative";
  let w = waker t in
  schedule t (t.now + Int64.to_int n) (lnot w);
  park t
