type record = {
  t : int64;
  core : int;
  tid : int;
  name : string;
  pid : int;
  event : Event.t;
  cycles : int64;
}

(* Per-key aggregate: enough state to re-derive the key's cycle total from
   an arbitrary preset at audit time. [rep] is one representative event;
   [fixed] stays true only while every emission under the key has agreed
   with [rep]'s linear unit, so [cycles = unit rep * charged_units].
   [rep_unit] holds [rep]'s unit under the trace's own preset (-1 until
   [rep] is set), so the agreement check on the hot path is an int
   compare against the unit [Event.measure] already computed. *)
(* Cycle accumulators here are native [int], not [int64]: a mutable
   boxed-int64 record field allocates a fresh box on every store, and
   these fields are written once or more per emitted event. 62 bits of
   cycles is ~146 years of simulated 1 GHz time, far beyond any run;
   the public API converts back to [int64] at the edges. *)
type entry = {
  mutable units : int;
  mutable charged_units : int;
  mutable cycles : int;
  mutable rep : Event.t option;
  mutable rep_unit : int;
  mutable fixed : bool;
}

let fresh_entry () =
  {
    units = 0;
    charged_units = 0;
    cycles = 0;
    rep = None;
    rep_unit = -1;
    fixed = true;
  }

type span_total = {
  span_path : string list;
  span_self : int64;
  span_cycles : int64;
  span_count : int;
}

(* A few physically compared [(key, name) -> id] slots in front of a
   hashed interning table. Callers pass literal or preallocated names, so
   a loop alternating between a handful of them (Context1's read and
   write) resolves with no hashing; a miss falls through to the table
   and takes the next slot round-robin. *)
module Slots = struct
  let n = 4

  type t = {
    keys : int array;
    names : string array;
    ids : int array; (* -1: empty slot *)
    mutable next : int;
  }

  let create () =
    {
      keys = Array.make n 0;
      names = Array.make n "";
      ids = Array.make n (-1);
      next = 0;
    }

  let rec probe s key name i =
    if i = n then -1
    else if s.names.(i) == name && s.keys.(i) = key && s.ids.(i) >= 0 then
      s.ids.(i)
    else probe s key name (i + 1)

  (* The slot's id, or -1 on a miss. *)
  let find s ~key name = probe s key name 0

  let add s ~key name id =
    let i = s.next in
    s.keys.(i) <- key;
    s.names.(i) <- name;
    s.ids.(i) <- id;
    s.next <- (i + 1) land (n - 1)
end

(* The accounting state is flat and int-indexed so the non-recording
   emit path is array stores plus one [Engine.advance]:

   - one [Event.measure] call gives an event's code, units, linear unit
     and cycles together, into the trace's own scratch [charge];
   - counter keys are interned into the meter once (first touch) and
     cached per [Event.id] in [key_ids] (per syscall name in
     [syscall_kids], behind [sys_slots]) — no string building or
     hashing per event;
   - per-key audit entries live in [entries], indexed by the same meter
     key id;
   - the record ring is columnar (one preallocated array per field), so
     recording appends field stores instead of allocating a record and
     an option box per event;
   - span stack paths are interned: [paths] maps (parent path id, name)
     to a dense id with [path_names]/[path_parents] reconstructing the
     [string list] for exports, and [path_self]/[path_total]/
     [path_closed] holding the aggregates;
   - open spans are rows of int columns ([frame_*]): a thread's stack is
     the chain from its innermost frame through [frame_parent], and the
     rows of closed frames are reused through a free list linked
     through the same column. Opening, charging and closing a span are
     int stores, with no frame allocated and no write barrier. *)
type t = {
  (* What every emission and span touches comes first, so the hot path
     reads few cache lines of this record. *)
  engine : Engine.t;
  costs : Costs.t;
  meter : Meter.t;
  charge : Event.charge; (* [Event.measure]'s scratch, reused per emit *)
  mutable sampler : (unit -> (string * int) list) option;
  mutable recording : bool;
  mutable emits : int;
  mutable total_cycles : int;
  key_ids : int array; (* Event.id -> meter key id, -1 until first touch *)
  sys_slots : Slots.t; (* syscall name -> meter key id, key unused *)
  mutable syscall_agg_kid : int; (* the aggregate "syscall" key id, or -1 *)
  mutable entries : entry array; (* meter key id -> audit entry *)
  (* Innermost open frame per thread, at [tops.(tid + 1)], or -1; slot 0
     is code outside any thread (tid -1). Engine tids are dense from 1,
     so the column grows by doubling up to the highest tid that opened a
     span, and reading a thread's top is one bounds check. *)
  mutable tops : int array;
  (* Open span frames, one row each. *)
  mutable frame_path : int array;
  mutable frame_parent : int array; (* enclosing frame, -1; or next free *)
  mutable frame_self : int array;
  mutable frame_child : int array; (* closed children's totals *)
  mutable frames_used : int; (* rows ever handed out *)
  mutable free_frame : int; (* head of the free list, or -1 *)
  path_slots : Slots.t; (* (parent path id, name) -> path id *)
  mutable path_self : int array; (* charged while innermost, open or not *)
  mutable path_total : int array; (* self + descendants, closed only *)
  mutable path_closed : int array;
  mutable path_hists : Histogram.t array; (* id -> name's histogram, lazy *)
  mutable unattr_id : int; (* "(unattributed)" path id, or -1 *)
  (* Spans: interned stack paths. Children are per-parent string tables
     (plus [roots] for top-level spans) rather than one (parent, name)
     table, so a lookup hashes a short string instead of allocating a
     tuple key per [with_span]. *)
  roots : (string, int) Hashtbl.t; (* top-level name -> id *)
  mutable path_names : string array;
  mutable path_parents : int array;
  mutable path_children : (string, int) Hashtbl.t array; (* id -> children *)
  mutable n_paths : int;
  syscall_kids : (string, int) Hashtbl.t; (* syscall name -> meter key id *)
  (* Record ring, columnar. Columns are empty until recording is first
     enabled: machines are booted by the hundred on the non-recorded
     bench path, and eagerly allocating seven capacity-sized columns per
     boot would dominate their setup cost. *)
  ring_capacity : int;
  mutable ring_t : int64 array;
  mutable ring_core : int array;
  mutable ring_tid : int array;
  mutable ring_pid : int array;
  mutable ring_cycles : int array;
  mutable ring_event : Event.t array;
  mutable ring_name : string array;
  mutable ring_start : int;
  mutable ring_len : int;
  mutable dropped : int;
  hists : (string, Histogram.t) Hashtbl.t;
  mutable sample_interval : int64;
  mutable next_sample : int64;
  mutable samples_rev : (int64 * (string * int) list) list;
  mutable in_sampler : bool;
}

let default_ring_capacity = 65536
let ring_dummy_event = Event.Context_switch

(* Slot fillers for the per-path arrays. Never written through: a slot is
   only read once its id has been interned, and interning installs fresh
   structures first — so sharing them across traces (hence domains) is
   safe. *)
let dummy_children : (string, int) Hashtbl.t = Hashtbl.create 1
let dummy_hist = Histogram.create ()

let create ~engine ~costs ?(ring_capacity = default_ring_capacity) () =
  let cap = max 1 ring_capacity in
  {
    engine;
    costs;
    meter = Meter.create ();
    charge = Event.charge ();
    key_ids = Array.make Event.id_count (-1);
    syscall_kids = Hashtbl.create 16;
    sys_slots = Slots.create ();
    syscall_agg_kid = -1;
    entries = [||];
    total_cycles = 0;
    emits = 0;
    ring_capacity = cap;
    ring_t = [||];
    ring_core = [||];
    ring_tid = [||];
    ring_pid = [||];
    ring_cycles = [||];
    ring_event = [||];
    ring_name = [||];
    ring_start = 0;
    ring_len = 0;
    dropped = 0;
    recording = false;
    roots = Hashtbl.create 16;
    path_names = [||];
    path_parents = [||];
    path_self = [||];
    path_total = [||];
    path_closed = [||];
    path_children = [||];
    path_hists = [||];
    n_paths = 0;
    unattr_id = -1;
    path_slots = Slots.create ();
    frame_path = [||];
    frame_parent = [||];
    frame_self = [||];
    frame_child = [||];
    frames_used = 0;
    free_frame = -1;
    tops = [||];
    hists = Hashtbl.create 16;
    sampler = None;
    sample_interval = 0L;
    next_sample = 0L;
    samples_rev = [];
    in_sampler = false;
  }

let meter t = t.meter
let total_charged t = Int64.of_int t.total_cycles
let emits t = t.emits

let ensure_ring t =
  if Array.length t.ring_event = 0 then begin
    let cap = t.ring_capacity in
    t.ring_t <- Array.make cap 0L;
    t.ring_core <- Array.make cap (-1);
    t.ring_tid <- Array.make cap (-1);
    t.ring_pid <- Array.make cap (-1);
    t.ring_cycles <- Array.make cap 0;
    t.ring_event <- Array.make cap ring_dummy_event;
    t.ring_name <- Array.make cap ""
  end

let set_recording t on =
  if on then ensure_ring t;
  t.recording <- on

let dropped t = t.dropped

(* The meter key id for an event, interning the key string on the first
   touch of each constructor (each syscall name) only — the golden
   scenarios pin that untouched keys stay out of {!Meter.to_list}. *)
let syscall_kid t name =
  let k = Slots.find t.sys_slots ~key:0 name in
  if k >= 0 then k
  else begin
    let k =
      match Hashtbl.find_opt t.syscall_kids name with
      | Some k -> k
      | None ->
          let k = Meter.intern t.meter ("syscall." ^ name) in
          Hashtbl.replace t.syscall_kids name k;
          k
    in
    Slots.add t.sys_slots ~key:0 name k;
    k
  end

(* The fast paths of the per-emit lookups are [@inline]: a direct call
   in closure-mode ocamlopt costs more than the two loads they are; the
   first-touch paths stay out of line. *)
let intern_event_key t eid event =
  let k = Meter.intern t.meter (Event.to_key event) in
  t.key_ids.(eid) <- k;
  k

let event_kid t eid event =
  let k = t.key_ids.(eid) in
  if k >= 0 then k else intern_event_key t eid event
[@@inline]

let intern_syscall_agg t =
  let k = Meter.intern t.meter "syscall" in
  t.syscall_agg_kid <- k;
  k

let syscall_agg_kid t =
  if t.syscall_agg_kid >= 0 then t.syscall_agg_kid else intern_syscall_agg t
[@@inline]

(* The audit and span tables start empty and grow on first use to
   [table_min] slots, about what one hello machine touches (some twenty
   keys and paths): a machine pays for the keys and paths it uses. *)
let table_min = 32

let grow_entries t kid =
  let old = t.entries in
  let n = Array.length old in
  let cap = max table_min (max (2 * n) (kid + 1)) in
  t.entries <-
    Array.init cap (fun i -> if i < n then old.(i) else fresh_entry ())

let acc_entry t kid =
  if kid >= Array.length t.entries then grow_entries t kid;
  t.entries.(kid)
[@@inline]

(* {2 Spans} *)

let unattributed_name = "(unattributed)"

(* A copy of [a] at [cap] slots, the new ones [fill]. *)
let widen a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_paths t =
  let cap = max table_min (2 * Array.length t.path_names) in
  t.path_names <- widen t.path_names cap "";
  t.path_parents <- widen t.path_parents cap (-1);
  t.path_self <- widen t.path_self cap 0;
  t.path_total <- widen t.path_total cap 0;
  t.path_closed <- widen t.path_closed cap 0;
  t.path_children <- widen t.path_children cap dummy_children;
  t.path_hists <- widen t.path_hists cap dummy_hist

let intern_path t ~parent name =
  let tbl = if parent < 0 then t.roots else t.path_children.(parent) in
  match Hashtbl.find_opt tbl name with
  | Some id -> id
  | None ->
      let id = t.n_paths in
      if id = Array.length t.path_names then grow_paths t;
      t.path_names.(id) <- name;
      t.path_parents.(id) <- parent;
      t.path_children.(id) <- Hashtbl.create 4;
      Hashtbl.replace tbl name id;
      t.n_paths <- id + 1;
      id

(* Reconstruct the outermost-first [string list] path for exports. *)
let path_list t id =
  let rec go id acc =
    if id < 0 then acc else go t.path_parents.(id) (t.path_names.(id) :: acc)
  in
  go id []

let hist_for t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h = Histogram.create () in
      Hashtbl.add t.hists name h;
      h

let top t tid =
  let i = tid + 1 in
  if i < Array.length t.tops then t.tops.(i) else -1
[@@inline]

let set_top t tid frame =
  let i = tid + 1 in
  if i >= Array.length t.tops then begin
    let n = ref (max 16 (Array.length t.tops)) in
    while !n <= i do
      n := 2 * !n
    done;
    t.tops <- widen t.tops !n (-1)
  end;
  t.tops.(i) <- frame

(* A free frame row: a recycled one, else the next unused row. *)
let take_frame t =
  let f = t.free_frame in
  if f >= 0 then begin
    t.free_frame <- t.frame_parent.(f);
    f
  end
  else begin
    let f = t.frames_used in
    if f = Array.length t.frame_path then begin
      let cap = max 16 (2 * f) in
      t.frame_path <- widen t.frame_path cap 0;
      t.frame_parent <- widen t.frame_parent cap (-1);
      t.frame_self <- widen t.frame_self cap 0;
      t.frame_child <- widen t.frame_child cap 0
    end;
    t.frames_used <- f + 1;
    f
  end

type span = int

let open_span t ~name =
  let tid = Engine.running_tid t.engine in
  let parent = top t tid in
  let parent_id = if parent < 0 then -1 else t.frame_path.(parent) in
  let path_id =
    let id = Slots.find t.path_slots ~key:parent_id name in
    if id >= 0 then id
    else begin
      let id = intern_path t ~parent:parent_id name in
      Slots.add t.path_slots ~key:parent_id name id;
      id
    end
  in
  let f = take_frame t in
  t.frame_path.(f) <- path_id;
  t.frame_parent.(f) <- parent;
  t.frame_self.(f) <- 0;
  t.frame_child.(f) <- 0;
  set_top t tid f;
  (* Span boundaries feed the causal analyzer's per-thread span-path
     timeline. Free when the bus is disarmed: one bool read. *)
  let module Hb = Ufork_util.Hb in
  if Hb.on () then Hb.emit (Hb.Span_open { tid; name });
  f

(* Closing pops the frame off the thread's stack, folds its total into
   the parent and the path's aggregate, and frees its row. The closing
   thread is the opening one: a span stays open across a fiber
   suspension and closes when its own thread resumes. The name's
   histogram is resolved lazily on the first close of each path (not at
   interning: a path can be interned by a span that never closes — or
   by the unattributed bucket — and must not surface an empty histogram
   in exports). *)
let close_span t f =
  let tid = Engine.running_tid t.engine in
  let parent = t.frame_parent.(f) in
  set_top t tid parent;
  let total = t.frame_self.(f) + t.frame_child.(f) in
  if parent >= 0 then t.frame_child.(parent) <- t.frame_child.(parent) + total;
  let id = t.frame_path.(f) in
  t.path_total.(id) <- t.path_total.(id) + total;
  t.path_closed.(id) <- t.path_closed.(id) + 1;
  t.frame_parent.(f) <- t.free_frame;
  t.free_frame <- f;
  let h = t.path_hists.(id) in
  let h =
    if h == dummy_hist then begin
      let h = hist_for t t.path_names.(id) in
      t.path_hists.(id) <- h;
      h
    end
    else h
  in
  Histogram.record_int h total;
  let module Hb = Ufork_util.Hb in
  if Hb.on () then Hb.emit (Hb.Span_close { tid; name = t.path_names.(id) })

let with_span t ~name f =
  let span = open_span t ~name in
  match f () with
  | v ->
      close_span t span;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      close_span t span;
      Printexc.raise_with_backtrace e bt

(* Attribute charged cycles to the innermost open span on this thread;
   cycles charged with no span open land in the "(unattributed)" bucket
   so the audit identity (sum of self = total charged) is total. *)
let attribute t tid cost =
  let f = top t tid in
  let id =
    if f >= 0 then begin
      t.frame_self.(f) <- t.frame_self.(f) + cost;
      t.frame_path.(f)
    end
    else if t.unattr_id >= 0 then t.unattr_id
    else begin
      let id = intern_path t ~parent:(-1) unattributed_name in
      t.unattr_id <- id;
      id
    end
  in
  t.path_self.(id) <- t.path_self.(id) + cost

(* {2 Virtual-time sampling}

   Piggybacked on [emit]: a dedicated sampler green thread would keep
   the engine from ever going quiescent, so instead the first emission
   at-or-after each interval boundary snapshots the gauges. At most one
   sample per emission; the boundary then skips past any gap so idle
   stretches don't replay missed ticks. *)

let maybe_sample t =
  match t.sampler with
  | Some read when not t.in_sampler ->
      let now = Engine.now t.engine in
      if Int64.compare now t.next_sample >= 0 then begin
        t.in_sampler <- true;
        Fun.protect
          ~finally:(fun () -> t.in_sampler <- false)
          (fun () -> t.samples_rev <- (now, read ()) :: t.samples_rev);
        let rec bump next =
          if Int64.compare next now <= 0 then
            bump (Int64.add next t.sample_interval)
          else next
        in
        t.next_sample <- bump t.next_sample
      end
  | _ -> ()

let set_sampler t ~interval read =
  if Int64.compare interval 0L <= 0 then
    invalid_arg "Trace.set_sampler: interval must be positive";
  t.sampler <- Some read;
  t.sample_interval <- interval;
  t.next_sample <- Int64.add (Engine.now t.engine) interval

(* The slow half of [emit]: ring append, only when recording. Columnar
   stores into the preallocated ring — no record or option allocation
   per event; {!records} reconstructs on demand. *)
let record_slow t pid event tid cost charged =
  let cap = Array.length t.ring_event in
  let j =
    if t.ring_len < cap then begin
      let j = t.ring_start + t.ring_len in
      let j = if j >= cap then j - cap else j in
      t.ring_len <- t.ring_len + 1;
      j
    end
    else begin
      let j = t.ring_start in
      t.ring_start <- (if t.ring_start + 1 >= cap then 0 else t.ring_start + 1);
      t.dropped <- t.dropped + 1;
      j
    end
  in
  t.ring_t.(j) <- Engine.now t.engine;
  t.ring_core.(j) <- Engine.running_core t.engine;
  t.ring_tid.(j) <- tid;
  t.ring_name.(j) <- Engine.running_name t.engine;
  t.ring_pid.(j) <- pid;
  t.ring_event.(j) <- event;
  t.ring_cycles.(j) <- (if charged then cost else 0)

let emit t ~pid event =
  if t.sampler != None then maybe_sample t;
  t.emits <- t.emits + 1;
  let c = t.charge in
  let cost = Event.measure ~costs:t.costs c event in
  let n = c.Event.units in
  let kid =
    match event with
    | Event.Syscall { name; _ } ->
        let k = syscall_kid t name in
        Meter.incr_id t.meter (syscall_agg_kid t);
        k
    | _ -> event_kid t c.Event.id event
  in
  Meter.add_id t.meter kid n;
  (* Outside an engine thread (boot, direct kernel poking in unit tests)
     there is no schedulable context to charge, mirroring the old
     boot-time charge path: count the event, skip the cycles. *)
  let tid = Engine.running_tid t.engine in
  (* TLB-shootdown batches interrupt remote cores: a causal edge from the
     initiator to every core it IPIs. Published here (not in the kernel)
     so every shootdown flavour reports through one site. *)
  (match event with
  | Event.Tlb_shootdown remotes when Ufork_util.Hb.on () ->
      Ufork_util.Hb.emit (Ufork_util.Hb.Ipi { by = tid; remotes })
  | _ -> ());
  let charged = tid >= 0 && cost > 0 in
  let e = acc_entry t kid in
  e.units <- e.units + n;
  (* A key that lost its fixed unit never regains it (the audit skips
     it), so only fixed keys look at the unit. *)
  if e.fixed then begin
    let lu = c.Event.unit in
    if lu < 0 then e.fixed <- false
    else if e.rep_unit < 0 then begin
      e.rep <- Some event;
      e.rep_unit <- lu
    end
    else if e.rep_unit <> lu then e.fixed <- false
  end;
  if charged then begin
    e.charged_units <- e.charged_units + n;
    e.cycles <- e.cycles + cost;
    t.total_cycles <- t.total_cycles + cost;
    attribute t tid cost
  end;
  if t.recording then record_slow t pid event tid cost charged;
  (* Last, so the record and the aggregates describe the state at emission
     time even if a [~until] deadline truncates the advance. On the
     common non-recorded path with the thread alone and nothing able to
     intervene, the engine passes time without performing the effect. *)
  if charged then Engine.advance t.engine cost

let gauge t key v =
  (* Gauges are shared scalar state (e.g. last-fork latency read by the
     stats dump): publish the write so the race detector can order it. *)
  let module Hb = Ufork_util.Hb in
  if Hb.on () then
    Hb.emit
      (Hb.Write { tid = Hb.tid (); loc = Hb.Gauge key; site = "Trace.gauge" });
  Meter.set t.meter key v

let last_fork_latency_key = "gauge.last_fork_latency"
let frames_in_use_key = "frames_in_use"
let cow_pending_pages_key = "cow_pending_pages"
let rss_bytes_key ~image ~pid = Printf.sprintf "rss_bytes.%s.%d" image pid

let last_fork_latency t =
  Int64.of_int (Meter.get t.meter last_fork_latency_key)

let records t =
  let cap = Array.length t.ring_event in
  List.init t.ring_len (fun i ->
      let j = (t.ring_start + i) mod cap in
      {
        t = t.ring_t.(j);
        core = t.ring_core.(j);
        tid = t.ring_tid.(j);
        name = t.ring_name.(j);
        pid = t.ring_pid.(j);
        event = t.ring_event.(j);
        cycles = Int64.of_int t.ring_cycles.(j);
      })

let record_to_json r =
  Printf.sprintf
    "{\"t\":%Ld,\"core\":%d,\"tid\":%d,\"name\":\"%s\",\"pid\":%d,\"event\":%s,\"cycles\":%Ld}"
    r.t r.core r.tid (Event.json_escape r.name) r.pid (Event.to_json r.event)
    r.cycles

let to_jsonl_string t =
  let b = Buffer.create 4096 in
  (* Header line first: consumers that count lines or look for drops see
     the ring's state without scanning the records. *)
  Buffer.add_string b
    (Printf.sprintf "{\"header\":{\"records\":%d,\"dropped\":%d}}\n" t.ring_len
       t.dropped);
  List.iter
    (fun r ->
      Buffer.add_string b (record_to_json r);
      Buffer.add_char b '\n')
    (records t);
  Buffer.contents b

let chrome_of_records recs =
  let us cycles = Ufork_util.Units.us_of_cycles cycles in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let sep () =
    if !first then first := false else Buffer.add_char b ','
  in
  (* Lanes are simulated threads; name each lane once via the Chrome
     "thread_name" metadata event so the viewer shows e.g. "redis.1"
     instead of a bare tid. *)
  let named = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let pid = if r.pid >= 0 then r.pid else 0 in
      let tid = if r.tid >= 0 then r.tid else 0 in
      if r.name <> "" && not (Hashtbl.mem named (pid, tid)) then begin
        Hashtbl.add named (pid, tid) ();
        sep ();
        Buffer.add_string b
          (Printf.sprintf
             "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"%s\"}}"
             pid tid
             (Event.json_escape r.name))
      end;
      sep ();
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"n\":%d,\"cycles\":%Ld,\"core\":%d,\"sim_pid\":%d,\"sim_tid\":%d}}"
           (Event.json_escape (Event.to_key r.event))
           (us r.t) (us r.cycles) pid tid (Event.count r.event) r.cycles
           r.core r.pid r.tid))
    recs;
  Buffer.add_string b "],\"displayTimeUnit\":\"ns\"}";
  Buffer.contents b

(* {2 Profiling exports} *)

let span_totals t =
  List.sort
    (fun a b -> compare a.span_path b.span_path)
    (List.init t.n_paths (fun id ->
         {
           span_path = path_list t id;
           span_self = Int64.of_int t.path_self.(id);
           span_cycles = Int64.of_int t.path_total.(id);
           span_count = t.path_closed.(id);
         }))

let folded_stacks t =
  let b = Buffer.create 1024 in
  List.iter
    (fun st ->
      if Int64.compare st.span_self 0L > 0 then
        Buffer.add_string b
          (Printf.sprintf "%s %Ld\n"
             (String.concat ";" st.span_path)
             st.span_self))
    (span_totals t);
  Buffer.contents b

let span_histograms t =
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.hists [])

let span_histogram t name = Hashtbl.find_opt t.hists name
let samples t = List.rev t.samples_rev

let samples_csv t =
  let samples = samples t in
  let keys =
    List.sort_uniq compare
      (List.concat_map (fun (_, gs) -> List.map fst gs) samples)
  in
  let b = Buffer.create 1024 in
  Buffer.add_string b (String.concat "," ("cycles" :: keys));
  Buffer.add_char b '\n';
  List.iter
    (fun (cycles, gs) ->
      Buffer.add_string b (Int64.to_string cycles);
      List.iter
        (fun k ->
          let v = match List.assoc_opt k gs with Some v -> v | None -> 0 in
          Buffer.add_string b (Printf.sprintf ",%d" v))
        keys;
      Buffer.add_char b '\n')
    samples;
  Buffer.contents b

let to_prometheus_string t =
  let b = Buffer.create 4096 in
  let esc = Event.json_escape in
  (* Exposition-format discipline: every family gets a # HELP line and a
     # TYPE line immediately before its samples — scrapers (and the unit
     test pinning this grammar) reject bare families. *)
  Buffer.add_string b
    "# HELP ufork_cycles_total Simulated cycles charged through the event \
     bus over the run.\n";
  Buffer.add_string b "# TYPE ufork_cycles_total counter\n";
  Buffer.add_string b
    (Printf.sprintf "ufork_cycles_total %Ld\n" (Int64.of_int t.total_cycles));
  Buffer.add_string b
    "# HELP ufork_trace_dropped_records Mechanism records evicted by ring \
     overflow (nonzero means the recorded stream is truncated).\n";
  Buffer.add_string b "# TYPE ufork_trace_dropped_records gauge\n";
  Buffer.add_string b
    (Printf.sprintf "ufork_trace_dropped_records %d\n" t.dropped);
  Buffer.add_string b
    "# HELP ufork_meter Named mechanism event counts (forks, faults, \
     shootdowns, ...).\n";
  Buffer.add_string b "# TYPE ufork_meter counter\n";
  List.iter
    (fun (k, v) ->
      Buffer.add_string b
        (Printf.sprintf "ufork_meter{key=\"%s\"} %d\n" (esc k) v))
    (Meter.to_list t.meter);
  Buffer.add_string b
    "# HELP ufork_span_self_cycles Cycles charged while a span path was the \
     innermost open span (self time, not inclusive).\n";
  Buffer.add_string b "# TYPE ufork_span_self_cycles counter\n";
  List.iter
    (fun st ->
      Buffer.add_string b
        (Printf.sprintf "ufork_span_self_cycles{span=\"%s\"} %Ld\n"
           (esc (String.concat ";" st.span_path))
           st.span_self))
    (span_totals t);
  Buffer.add_string b
    "# HELP ufork_span_cycles Per-completion inclusive span latency, in \
     cycles, by span name.\n";
  Buffer.add_string b "# TYPE ufork_span_cycles histogram\n";
  List.iter
    (fun (name, h) ->
      let cum = ref 0 in
      List.iter
        (fun (_, hi, n) ->
          cum := !cum + n;
          Buffer.add_string b
            (Printf.sprintf "ufork_span_cycles_bucket{span=\"%s\",le=\"%Ld\"} %d\n"
               (esc name) hi !cum))
        (Histogram.to_buckets h);
      Buffer.add_string b
        (Printf.sprintf "ufork_span_cycles_bucket{span=\"%s\",le=\"+Inf\"} %d\n"
           (esc name) (Histogram.count h));
      Buffer.add_string b
        (Printf.sprintf "ufork_span_cycles_sum{span=\"%s\"} %Ld\n" (esc name)
           (Histogram.sum h));
      Buffer.add_string b
        (Printf.sprintf "ufork_span_cycles_count{span=\"%s\"} %d\n" (esc name)
           (Histogram.count h)))
    (span_histograms t);
  Buffer.contents b

exception Audit_failure of string

let audit t ~costs ~elapsed =
  let total_cycles = Int64.of_int t.total_cycles in
  if elapsed <> total_cycles then
    raise
      (Audit_failure
         (Printf.sprintf
            "engine advanced %Ld cycles but the trace charged %Ld (delta %Ld)"
            elapsed total_cycles
            (Int64.sub elapsed total_cycles)));
  (* Span attribution must be a partition of the charged cycles: every
     charged cycle lands in exactly one span's self bucket (or the
     "(unattributed)" bucket), so the sums must agree exactly. *)
  let span_self_sum = ref 0 in
  for id = 0 to t.n_paths - 1 do
    span_self_sum := !span_self_sum + t.path_self.(id)
  done;
  let span_self_sum = Int64.of_int !span_self_sum in
  if span_self_sum <> total_cycles then
    raise
      (Audit_failure
         (Printf.sprintf
            "span self-cycles sum to %Ld but the trace charged %Ld (delta %Ld)"
            span_self_sum total_cycles
            (Int64.sub total_cycles span_self_sum)));
  (* Pass/fail per entry is independent of the others; which failing key
     gets reported first is diagnostic detail only. *)
  Array.iteri
    (fun kid e ->
      match e.rep with
      | Some rep when e.fixed ->
          let unit = Event.linear_unit ~costs rep in
          if unit >= 0 then begin
            let unit = Int64.of_int unit in
            let expected = Int64.mul unit (Int64.of_int e.charged_units) in
            if Int64.of_int e.cycles <> expected then
              raise
                (Audit_failure
                   (Printf.sprintf
                      "key %S charged %Ld cycles; preset says %d units x \
                       %Ld = %Ld"
                      (Meter.name t.meter kid)
                      (Int64.of_int e.cycles)
                      e.charged_units unit expected))
          end
      | _ -> ())
    t.entries
