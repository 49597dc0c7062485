(** The per-machine mechanism-event bus.

    One [Trace.t] belongs to one simulated machine (engine + cost preset).
    Every mechanism event flows through {!emit}, which atomically

    + charges the event's simulated cycles via {!Engine.advance} (skipped,
      like the old boot-time charge path, when called outside an engine
      thread — e.g. initial image mapping or unit tests poking at a kernel
      directly);
    + bumps the event's counter in the derived {!Meter} view under
      {!Event.to_key} (by {!Event.count} units), keeping every existing
      benchmark reader working unchanged;
    + when recording is on, appends a timestamped
      [{t; core; tid; pid; event}] record to a bounded ring buffer that
      exports as JSONL or Chrome [about:tracing] JSON.

    Because charging and counting share one code path, the accounting
    invariant is checkable: {!audit} asserts that the engine's total busy
    cycles equal the sum of cycles charged through the bus — no hidden
    constants — and re-derives each fixed-cost counter's cycle total from
    the preset. *)

type t

val create :
  engine:Engine.t -> costs:Costs.t -> ?ring_capacity:int -> unit -> t
(** [ring_capacity] bounds the record buffer (default 65536); when it
    overflows, the oldest records are dropped and {!dropped} counts them.
    Recording starts disabled — counting and charging are always on. *)

val meter : t -> Meter.t
(** The derived counter view. Treat as read-only: all writes should come
    from {!emit} (or {!gauge}); poking it directly bypasses charging and
    will trip {!audit}. *)

val emit : t -> pid:int -> Event.t -> unit
(** Charge + count + record one event on behalf of μprocess [pid] ([-1]:
    no process context). Required rather than optional: an optional
    argument is boxed on every cross-module call. For [Event.Syscall] the
    aggregate ["syscall"] counter is bumped alongside the per-name key. *)

val gauge : t -> string -> int -> unit
(** Overwrite a "last observed value" gauge in the derived view (e.g.
    {!last_fork_latency_key}). Gauges carry no cycles and are exempt
    from {!audit}. *)

val with_span : t -> name:string -> (unit -> 'a) -> 'a
(** [with_span t ~name f] runs [f] inside a named span on the current
    engine thread's span stack. Every cycle charged by {!emit} while the
    span is innermost is attributed to its {i self} time; nested spans
    accumulate into the parent's {i total} on close. Spans charge no
    cycles and bump no counters — they are pure attribution. Aggregation
    is by full stack path (outermost-first, [;]-joined in exports), and
    each completed instance's total is recorded into a per-[name]
    {!Histogram}. Exception- and effect-safe: the span closes when [f]
    returns or raises; a fiber suspension keeps it open (the thread's
    stack is keyed by engine tid). Cycles charged with no open span land
    under the ["(unattributed)"] pseudo-span, so attribution is a
    partition of {!total_charged} — {!audit} enforces the identity. *)

type span
(** An open span instance. *)

val open_span : t -> name:string -> span
(** The opening half of {!with_span}, for a caller that runs its body
    inline instead of as a closure (the kernel's syscall entry, taken on
    every system call). *)

val close_span : t -> span -> unit
(** The closing half: the caller closes every span it opens, on every
    exit path, exceptions included, innermost first, from the thread
    that opened it. *)

type span_total = {
  span_path : string list;  (** Stack path, outermost-first. *)
  span_self : int64;  (** Cycles charged while innermost (incl. open). *)
  span_cycles : int64;  (** Self + descendants, closed instances only. *)
  span_count : int;  (** Closed instances. *)
}

val span_totals : t -> span_total list
(** Per-path aggregates, sorted by path. *)

val folded_stacks : t -> string
(** Folded-stack flamegraph text: one [a;b;c self-cycles] line per stack
    path with nonzero self time, sorted — ready for
    [flamegraph.pl]/[inferno]. *)

val span_histograms : t -> (string * Histogram.t) list
(** Completed-instance duration histograms, one per span {i name}
    (across all stack positions), sorted by name. *)

val span_histogram : t -> string -> Histogram.t option
(** The duration histogram for one span name, if any instance closed. *)

val set_sampler : t -> interval:int64 -> (unit -> (string * int) list) -> unit
(** Register a virtual-time gauge sampler: the first {!emit} at or after
    each [interval]-cycle boundary calls the callback and snapshots the
    returned [(gauge, value)] pairs. Sampling rides on emission (a
    periodic thread would keep the engine from going quiescent), so
    sample spacing is at least [interval] but lands on the next emission
    after each boundary. The callback must not call {!emit} (re-entry is
    ignored). Raises [Invalid_argument] if [interval <= 0]. *)

val samples : t -> (int64 * (string * int) list) list
(** Snapshots, oldest first: [(cycles, gauges)]. *)

val samples_csv : t -> string
(** Time-series CSV: header [cycles,<gauge>,...] (gauge columns sorted,
    union over all snapshots), one row per snapshot, missing gauges 0. *)

val to_prometheus_string : t -> string
(** Prometheus text exposition: total charged cycles, dropped-record
    count, every meter counter ([ufork_meter{key="..."}]), per-path span
    self cycles, and per-name span-duration histograms with cumulative
    log2 buckets. *)

val last_fork_latency_key : string
(** The gauge every fork hook sets to the cycles spent inside the most
    recent fork call. *)

val frames_in_use_key : string
(** Sampler gauge: physical frames currently allocated. *)

val cow_pending_pages_key : string
(** Sampler gauge: pages still awaiting copy-on-write resolution. *)

val rss_bytes_key : image:string -> pid:int -> string
(** Sampler gauge key for one process's private bytes; the single
    constructor keeps the [rss_bytes.<image>.<pid>] namespace in one
    place. *)

val last_fork_latency : t -> int64
(** Typed read of that gauge (0 before the first fork). *)

val total_charged : t -> int64
(** Simulated cycles charged through this bus since creation. *)

val emits : t -> int
(** Lifetime count of {!emit} calls — host-side work, not simulated
    units, so the bench harness can report simulated-events/s against
    wall-clock. *)

val set_recording : t -> bool -> unit

type record = {
  t : int64;  (** Simulated time at emission, cycles. *)
  core : int;  (** Executing core, [-1] outside an engine thread. *)
  tid : int;  (** Engine thread id, [-1] outside an engine thread. *)
  name : string;  (** Engine thread name, [""] outside an engine thread. *)
  pid : int;  (** μprocess id, [-1] when not applicable. *)
  event : Event.t;
  cycles : int64;  (** Cycles this emission charged. *)
}

val records : t -> record list
(** Buffered records, oldest first. *)

val dropped : t -> int
(** Records evicted by ring overflow since creation. *)

val record_to_json : record -> string [@@ufork.test_seam]
(** One JSONL line (no trailing newline):
    [{"t":..,"core":..,"tid":..,"name":..,"pid":..,"event":{..},"cycles":..}]. *)

val to_jsonl_string : t -> string
(** A header line [{"header":{"records":..,"dropped":..}}] — so ring
    overflow is visible in the artifact itself — followed by all
    buffered records, one JSON object per line. *)

val chrome_of_records : record list -> string
(** Chrome trace-event JSON ([about:tracing] / Perfetto): one complete
    ("ph":"X") event per record, timestamps in microseconds at the
    simulated 2.5 GHz clock. Lanes are simulated threads (Chrome "tid" =
    engine tid), labelled with their thread names via "thread_name"
    metadata events; the executing core rides along in [args]. *)

exception Audit_failure of string

val audit : t -> costs:Costs.t -> elapsed:int64 -> unit
(** Assert the accounting invariant, with zero tolerance:

    - [elapsed] (pass {!Engine.advanced}, the engine's lifetime busy
      cycles) equals {!total_charged} — every advanced cycle was a traced
      event and every traced event's cycles reached the engine;
    - the span self-cycle sums ({!span_totals}, including the
      ["(unattributed)"] pseudo-span) partition {!total_charged}: their
      sum equals it exactly;
    - for each counter key whose events have a preset-derivable unit cost
      ({!Event.linear_unit}), the cycles charged under that key equal
      [charged units * unit] recomputed from [costs].

    Raises {!Audit_failure} naming the discrepancy otherwise. *)
