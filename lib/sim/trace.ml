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
   [rep_unit] caches [Event.linear_unit rep] under the trace's own preset
   (-1 until [rep] is set) so the agreement check on the hot path is an
   int compare, not a recomputation. *)
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

(* Per-path span aggregate. [self_cycles] accumulates at emission time
   (so the audit invariant holds even while instances are still open);
   [span_total]/[closed] only count completed instances. *)
type span_agg = {
  mutable self_cycles : int;
  mutable span_total : int;
  mutable closed : int;
}

(* One open span instance on some thread's stack. [path_id] is the
   interned id of the outermost-first stack path ending in this span's
   own name; [agg] caches the per-path aggregate so charging on the hot
   emit path is one mutable add, not a hash lookup. The bottom of every
   stack is the shared sentinel [no_frame], so neither a frame's parent
   nor a stack slot needs an option box. *)
type frame = {
  path_id : int;
  agg : span_agg;
  parent : frame;
  mutable self : int;
  mutable child_total : int;
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

  let clear s = Array.fill s.ids 0 n (-1)
end

(* The accounting state is flat and int-indexed so the non-recording
   emit path is array stores plus one [Engine.advance]:

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
     [string list] for exports, and [path_aggs.(id)] holding the
     aggregate. *)
type t = {
  engine : Engine.t;
  costs : Costs.t;
  meter : Meter.t;
  key_ids : int array; (* Event.id -> meter key id, -1 until first touch *)
  syscall_kids : (string, int) Hashtbl.t; (* syscall name -> meter key id *)
  sys_slots : Slots.t; (* syscall name -> meter key id, key unused *)
  mutable syscall_agg_kid : int; (* the aggregate "syscall" key id, or -1 *)
  mutable entries : entry array; (* meter key id -> audit entry *)
  mutable total_cycles : int;
  mutable emits : int;
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
  mutable recording : bool;
  (* Spans: interned stack paths. Children are per-parent string tables
     (plus [roots] for top-level spans) rather than one (parent, name)
     table, so a lookup hashes a short string instead of allocating a
     tuple key per [with_span]. *)
  roots : (string, int) Hashtbl.t; (* top-level name -> id *)
  mutable path_names : string array;
  mutable path_parents : int array;
  mutable path_aggs : span_agg array;
  mutable path_children : (string, int) Hashtbl.t array; (* id -> children *)
  mutable path_hists : Histogram.t array; (* id -> name's histogram, lazy *)
  mutable n_paths : int;
  mutable unattr_id : int; (* "(unattributed)" path id, or -1 *)
  path_slots : Slots.t; (* (parent path id, name) -> path id *)
  (* Innermost open frame per thread, at [stacks.(tid + 1)]; slot 0 is
     code outside any thread (tid -1). Engine tids are dense from 1, so
     the array grows by doubling up to the highest tid that opened a
     span, and reading a thread's top is one bounds check. *)
  mutable stacks : frame array;
  hists : (string, Histogram.t) Hashtbl.t;
  mutable sampler : (unit -> (string * int) list) option;
  mutable sample_interval : int64;
  mutable next_sample : int64;
  mutable samples_rev : (int64 * (string * int) list) list;
  mutable in_sampler : bool;
}

let default_ring_capacity = 65536
let ring_dummy_event = Event.Context_switch
let dummy_agg = { self_cycles = 0; span_total = 0; closed = 0 }

(* Never written through: every writer checks for it first, so sharing
   it across traces (hence domains) is safe. *)
let rec no_frame =
  {
    path_id = -1;
    agg = dummy_agg;
    parent = no_frame;
    self = 0;
    child_total = 0;
  }

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
    path_aggs = [||];
    path_children = [||];
    path_hists = [||];
    n_paths = 0;
    unattr_id = -1;
    path_slots = Slots.create ();
    stacks = [||];
    hists = Hashtbl.create 16;
    sampler = None;
    sample_interval = 0L;
    next_sample = 0L;
    samples_rev = [];
    in_sampler = false;
  }

let engine t = t.engine
let costs t = t.costs
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
let recording t = t.recording
let dropped t = t.dropped

(* The meter key id for an event, interning the key string on the first
   touch of each constructor (each syscall name) only — the golden
   scenarios pin that untouched keys stay out of {!Meter.to_list}. *)
let kid_of t event =
  match event with
  | Event.Syscall { name; _ } ->
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
  | _ ->
      let eid = Event.id event in
      let k = t.key_ids.(eid) in
      if k >= 0 then k
      else begin
        let k = Meter.intern t.meter (Event.to_key event) in
        t.key_ids.(eid) <- k;
        k
      end

let syscall_agg_kid t =
  if t.syscall_agg_kid >= 0 then t.syscall_agg_kid
  else begin
    let k = Meter.intern t.meter "syscall" in
    t.syscall_agg_kid <- k;
    k
  end

(* The audit and span tables start empty and grow on first use to
   [table_min] slots, about what one hello machine touches (some twenty
   keys and paths): a machine pays for the keys and paths it uses. *)
let table_min = 32

let acc_entry t kid =
  if kid >= Array.length t.entries then begin
    let old = t.entries in
    let n = Array.length old in
    let cap = max table_min (max (2 * n) (kid + 1)) in
    t.entries <-
      Array.init cap (fun i -> if i < n then old.(i) else fresh_entry ())
  end;
  t.entries.(kid)

(* {2 Spans} *)

let unattributed_name = "(unattributed)"

let grow_paths t =
  let n = Array.length t.path_names in
  let cap = max table_min (2 * n) in
  let names = Array.make cap "" in
  Array.blit t.path_names 0 names 0 n;
  t.path_names <- names;
  let parents = Array.make cap (-1) in
  Array.blit t.path_parents 0 parents 0 n;
  t.path_parents <- parents;
  let aggs = Array.make cap dummy_agg in
  Array.blit t.path_aggs 0 aggs 0 n;
  t.path_aggs <- aggs;
  let children = Array.make cap dummy_children in
  Array.blit t.path_children 0 children 0 n;
  t.path_children <- children;
  let hists = Array.make cap dummy_hist in
  Array.blit t.path_hists 0 hists 0 n;
  t.path_hists <- hists

let intern_path t ~parent name =
  let tbl = if parent < 0 then t.roots else t.path_children.(parent) in
  match Hashtbl.find_opt tbl name with
  | Some id -> id
  | None ->
      let id = t.n_paths in
      if id = Array.length t.path_names then grow_paths t;
      t.path_names.(id) <- name;
      t.path_parents.(id) <- parent;
      t.path_aggs.(id) <- { self_cycles = 0; span_total = 0; closed = 0 };
      t.path_children.(id) <- Hashtbl.create 4;
      t.path_hists.(id) <- dummy_hist;
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

let stack_top t tid =
  let i = tid + 1 in
  if i < Array.length t.stacks then t.stacks.(i) else no_frame

let set_stack_top t tid top =
  let i = tid + 1 in
  if i >= Array.length t.stacks then begin
    let n = ref (max 16 (Array.length t.stacks)) in
    while !n <= i do
      n := 2 * !n
    done;
    let stacks = Array.make !n no_frame in
    Array.blit t.stacks 0 stacks 0 (Array.length t.stacks);
    t.stacks <- stacks
  end;
  t.stacks.(i) <- top

(* Closing pops [frame] off [tid]'s stack and folds its totals into the
   parent and the per-path aggregate. The name's histogram is resolved
   lazily on the first close of each path (not at interning: a path can
   be interned by a span that never closes — or by the unattributed
   bucket — and must not surface an empty histogram in exports). *)
let close_frame t tid frame =
  set_stack_top t tid frame.parent;
  let total = frame.self + frame.child_total in
  let p = frame.parent in
  if p != no_frame then p.child_total <- p.child_total + total;
  frame.agg.span_total <- frame.agg.span_total + total;
  frame.agg.closed <- frame.agg.closed + 1;
  let h = t.path_hists.(frame.path_id) in
  let h =
    if h == dummy_hist then begin
      let h = hist_for t t.path_names.(frame.path_id) in
      t.path_hists.(frame.path_id) <- h;
      h
    end
    else h
  in
  Histogram.record_int h total

type span = frame

let open_span t ~name =
  let tid = Engine.running_tid t.engine in
  let parent = stack_top t tid in
  let parent_id = parent.path_id in
  let path_id =
    let id = Slots.find t.path_slots ~key:parent_id name in
    if id >= 0 then id
    else begin
      let id = intern_path t ~parent:parent_id name in
      Slots.add t.path_slots ~key:parent_id name id;
      id
    end
  in
  let frame =
    { path_id; agg = t.path_aggs.(path_id); parent; self = 0; child_total = 0 }
  in
  set_stack_top t tid frame;
  (* Span boundaries feed the causal analyzer's per-thread span-path
     timeline. Free when the bus is disarmed: one bool read. *)
  let module Hb = Ufork_util.Hb in
  if Hb.on () then Hb.emit (Hb.Span_open { tid; name });
  frame

(* The closing thread is the opening one: a span stays open across a
   fiber suspension and closes when its own thread resumes. *)
let close_span t frame =
  let tid = Engine.running_tid t.engine in
  close_frame t tid frame;
  let module Hb = Ufork_util.Hb in
  if Hb.on () then
    Hb.emit (Hb.Span_close { tid; name = t.path_names.(frame.path_id) })

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
  let f = stack_top t tid in
  if f != no_frame then begin
    f.self <- f.self + cost;
    f.agg.self_cycles <- f.agg.self_cycles + cost
  end
  else
    let id =
      if t.unattr_id >= 0 then t.unattr_id
      else begin
        let id = intern_path t ~parent:(-1) unattributed_name in
        t.unattr_id <- id;
        id
      end
    in
    let a = t.path_aggs.(id) in
    a.self_cycles <- a.self_cycles + cost

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
  let kid = kid_of t event in
  let n = Event.count event in
  let cost = Event.cost ~costs:t.costs event in
  Meter.add_id t.meter kid n;
  (match event with
  | Event.Syscall _ -> Meter.incr_id t.meter (syscall_agg_kid t)
  | _ -> ());
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
     it), so only fixed keys pay for the unit. *)
  if e.fixed then begin
    let lu = Event.linear_unit ~costs:t.costs event in
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
     time even if a [~until] deadline truncates the advance. The direct
     call passes time without performing the effect when the thread is
     alone and nothing can intervene — the common case on the
     non-recorded hot path. *)
  if charged then
    if not (Engine.advance_direct t.engine cost) then
      Engine.advance (Int64.of_int cost)

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

let reset t =
  Meter.reset t.meter;
  Array.iter
    (fun e ->
      e.units <- 0;
      e.charged_units <- 0;
      e.cycles <- 0;
      e.rep <- None;
      e.rep_unit <- -1;
      e.fixed <- true)
    t.entries;
  t.total_cycles <- 0;
  (* Release the refs the ring columns hold; the scalar columns can keep
     stale values behind ring_len. *)
  Array.fill t.ring_event 0 (Array.length t.ring_event) ring_dummy_event;
  Array.fill t.ring_name 0 (Array.length t.ring_name) "";
  t.ring_start <- 0;
  t.ring_len <- 0;
  t.dropped <- 0;
  Hashtbl.reset t.roots;
  Array.fill t.path_names 0 t.n_paths "";
  Array.fill t.path_aggs 0 t.n_paths dummy_agg;
  Array.fill t.path_children 0 t.n_paths dummy_children;
  Array.fill t.path_hists 0 t.n_paths dummy_hist;
  t.n_paths <- 0;
  t.unattr_id <- -1;
  Slots.clear t.path_slots;
  Array.fill t.stacks 0 (Array.length t.stacks) no_frame;
  Hashtbl.reset t.hists;
  t.samples_rev <- [];
  if t.sampler <> None then
    t.next_sample <- Int64.add (Engine.now t.engine) t.sample_interval

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
         let a = t.path_aggs.(id) in
         {
           span_path = path_list t id;
           span_self = Int64.of_int a.self_cycles;
           span_cycles = Int64.of_int a.span_total;
           span_count = a.closed;
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
    span_self_sum := !span_self_sum + t.path_aggs.(id).self_cycles
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
