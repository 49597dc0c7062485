(** Drivers for every experiment in the paper's evaluation (§5), plus
    the SMP scaling sweep and the ablations beyond it.

    Each function boots the systems involved under the installed run
    plan ({!with_plan}), runs the workload inside the simulation, checks
    every machine it booted (below) and returns structured rows. They
    are shared by the benchmark harness ([bench/main.exe]), the CLI
    ([bin/ufork_sim.exe]), the repository benchmark ([perfbench/]) and
    the test suites. All runs are deterministic. *)

(** Which OS serves the workload. *)
type system =
  | Ufork of Ufork_core.Strategy.t
  | Ufork_toctou of Ufork_core.Strategy.t  (** full isolation + TOCTTOU *)
  | Cheribsd
  | Nephele
  | Linux_ref

val system_label : system -> string

(** {1 The run plan}

    Everything a front end asks of the runs it drives — a core-count
    override, event recording, trace and profile sinks, stat sampling,
    the dynamic detectors and the chaos injections — is one immutable
    {!Run.t}. {!with_plan} installs it around a body; every experiment
    boot inside reads it once. *)

(** Trace sink encoding: one JSON record per line, or a Chrome
    [about:tracing] / Perfetto trace-event file. *)
type trace_format = Jsonl | Chrome

module Run : sig
  (** The dynamic checkers a plan can arm on every machine it boots.
      They share the one instrumentation bus subscription. *)
  type detector =
    | Race
        (** The happens-before race detector ({!Ufork_analysis.Race}):
            the run fails with R1 if conflicting writes to shared state
            went unordered. *)
    | Lockdep
        (** The lock-acquisition-order checker
            ({!Ufork_analysis.Lockdep}): the run fails with R2 if the
            acquisition graph grew a cycle or a pt-shard pair was nested
            in descending index order. *)
    | Causal
        (** The causal collector ({!Ufork_analysis.Causal}); read it back
            with {!causal_graph} for critical-path analysis. *)
    | Capflow
        (** The capability-provenance taint checks (R4): the
            {!Ufork_analysis.Capflow} stream detector, a scan of every
            child's pages as its fork returns, and the provenance clause
            of the final {!Ufork_analysis.Checker.sweep}. *)

  type t = {
    cores : int option;
        (** Boot every machine with this many cores instead of each
            experiment's own default. *)
    record : bool;
        (** Record mechanism events even with no trace sink, so the
            protocol linter ({!Ufork_analysis.Lint}) has a stream to
            check. *)
    trace_out : (string * trace_format) option;
        (** Record every machine's events and write them to this file
            (all machines booted under the plan, oldest first; rewritten
            after each run). *)
    profile_out : string option;
        (** Write every machine's folded-stack flamegraph text to this
            file, rewritten after each run like the trace sink. *)
    collect_profiles : bool;
        (** Keep every machine's trace reachable through
            {!profiled_traces} (no file output). *)
    sample_interval : int64 option;
        (** Virtual-time stat sampling interval in cycles (see
            {!Ufork_sas.Kernel.enable_stat_sampling}). *)
    detectors : detector list;
    chaos : Ufork_analysis.Chaos.injection list;
        (** Must-fail controls armed on every machine before its workload
            starts ({!Ufork_analysis.Chaos.injections}); paired with the
            detector of the invariant each violates, the run must fail
            with exactly that invariant. *)
  }

  val default : t
  (** Each experiment's own core count, nothing recorded, no sinks, no
      detectors, no chaos. *)
end

val with_plan : Run.t -> (unit -> 'a) -> 'a
(** [with_plan p f] runs [f] with [p] installed and restores the
    previous plan when [f] returns or raises. The machines the plan's
    sinks collect, and the causal collector, belong to the installation;
    a nested plan with the same sinks and profile consumers adds to the
    enclosing plan's collections. On exit the
    {!Ufork_core.Relocate.chaos_skip_rebase} seam is cleared and, if the
    plan armed detectors, the instrumentation bus is unsubscribed, so
    nothing the plan armed outlives it. *)

val current_plan : unit -> Run.t
(** The installed plan ({!Run.default} outside any {!with_plan}). *)

val set_collect_profiles : bool -> unit
(** Set [collect_profiles] in the installed plan, without scoping, and
    empty {!profiled_traces}. Nothing else changes: the trace sink's
    machines, the drop-warning count and the causal collector are kept.
    Leaving the enclosing {!with_plan} undoes the setting. *)

val profiled_traces : unit -> Ufork_sim.Trace.t list
(** Machines booted since a profile consumer was installed, oldest
    first. *)

val causal_graph : unit -> Ufork_analysis.Causal.t option
(** The causal collector of the latest boot under the installed plan, if
    it arms {!Run.Causal}. *)

val write_artifact : string -> (out_channel -> unit) -> unit
(** Write one output artifact via {!Ufork_util.Fsout.with_out}: missing
    parent directories are created, and a filesystem failure prints a
    clean one-line error and exits 1 — no backtrace. Shared by the trace
    and profile sinks here and the CLI/bench front ends. *)

(** {1 Domain-parallel sweeps} *)

val parmap : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [parmap ~jobs f items] maps [f] over [items] from up to [jobs]
    OCaml domains, returning results in item order. Every experiment
    machine is self-contained, so each point's result is bit-identical
    to what the serial [List.map] produces — the qcheck suite pins this
    property; a raising point re-raises deterministically (first failure
    in item order). Degrades to serial when [jobs <= 1] and, silently,
    whenever the installed plan differs from {!Run.default} in anything
    but [cores] (sinks, recording, sampling, detectors, chaos): those
    funnel per-run state through the installation and the one detector
    bus. *)

val reset_emits : unit -> unit
(** Zero the cross-run emitted-events accumulator below. *)

val emits_total : unit -> int
(** Mechanism events emitted by every machine finished (via the
    end-of-run audit) since the last {!reset_emits}, summed across
    domains — the numerator of the events bench's simulated-events per
    host-second metric. *)

(** {1 Accounting audit and state sanitizer}

    Every experiment run checks {!Ufork_sim.Trace.audit} before returning:
    the engine's busy cycles must equal the cycles charged through the
    event bus, with zero tolerance. A failure raises
    {!Ufork_sim.Trace.Audit_failure}.

    Alongside the audit, every run ends with
    {!Ufork_analysis.Checker.assert_safe}: the machine-state sanitizer
    sweeps frames, page tables, stored capabilities and the process
    table (invariants S1–S11), and — when recording is on — the
    protocol linter replays the event stream (L1–L5). Then the plan's
    armed detectors report (R1, R2, R4). A violation raises
    {!Ufork_analysis.Checker.Unsafe} with the full report. *)

(** {1 Redis (Fig. 3, 4, 5)} *)

type redis_row = {
  system : system;
  db_label : string;
  db_bytes : int;
  entries : int;
  save_ms : float;  (** Fig. 3: overall background-save time. *)
  fork_us : float;  (** Fig. 4: latency of the fork call itself. *)
  child_mb : float;  (** Fig. 5: memory attributable to the forked child. *)
  dump_ok : bool;  (** The dump parsed back and matched the keyspace. *)
}

val redis_run :
  system -> entries:int -> value_len:int -> db_label:string -> redis_row
(** Populate, BGSAVE, verify the dump against the expected keyspace. *)

val redis_sweep :
  systems:system list ->
  ?sizes:(string * int * int) list ->
  ?jobs:int ->
  unit ->
  redis_row list
(** Default sizes: {!Keyspace.db_sizes_of_paper}. [jobs] fans the
    (system, size) points out via {!parmap} (default 1: serial). *)

(** {1 FaaS (Fig. 6)} *)

type faas_row = {
  system : system;
  worker_cores : int;
  throughput_per_s : float;
  completed : int;
}

val faas_run : system -> worker_cores:int -> ?window_s:float -> unit -> faas_row
(** Default window: 1 simulated second (rates are per second either
    way). *)

(** {1 Nginx (Fig. 7)} *)

type nginx_row = {
  system : system;
  cores : int;
  workers : int;
  requests_per_s : float;
}

val nginx_run :
  system -> cores:int -> workers:int -> ?window_s:float -> ?connections:int ->
  unit -> nginx_row

(** {1 hello-world microbenchmarks (Fig. 8)} *)

type hello_row = {
  system : system;
  fork_latency_us : float;
  child_memory_mb : float;
}

val hello_run : system -> hello_row
val fig8 : unit -> hello_row list
(** μFork (CoPA), CheriBSD, Nephele. *)

(** {1 Unixbench (Fig. 9)} *)

type unixbench_row = {
  system : system;
  spawn_ms : float;  (** Fig. 9 left: 1000 fork/exit/wait rounds. *)
  context1_ms : float;  (** Fig. 9 right: 100k pipe round trips. *)
}

val unixbench_run :
  system -> spawn_iters:int -> context1_iters:int -> unixbench_row

val fig9 : ?spawn_iters:int -> ?context1_iters:int -> unit -> unixbench_row list
(** Defaults: 1000 spawns, 100_000 round trips, for μFork and CheriBSD. *)

(** {1 SMP fork scaling ([BENCH_smp.json])} *)

type smp_row = {
  system : system;
  cores : int;
  locks : string;  (** the booted config's lock mode: "bkl" or "sharded" *)
  forks : int;  (** children forked and reaped across every forker *)
  forks_per_s : float;
  fault_p50_us : float;  (** fault-service span latency quantiles *)
  fault_p99_us : float;
  steals : int;  (** engine cross-queue work steals over the run *)
}

val fork_storm_run :
  ?config:Ufork_sas.Config.t -> system -> cores:int -> iters:int -> unit ->
  smp_row
(** One forking μprocess per core, each forking and reaping [iters]
    children that dirty a two-page working set. The concurrent forkers
    contend on every sharded kernel lock, making this both the
    fork-throughput scaling probe ([bench --cores-sweep]) and the
    workload the CI race job replays under the detector. [?config]
    overrides the flavour's default — pass
    [Config.with_lock_mode Big_kernel_lock ...] for the BKL baseline. *)

(** {1 Ablations beyond the paper} *)

type ablation_row = { label : string; value : float; unit_ : string }

val ablate_proactive : unit -> ablation_row list
(** Fork latency and post-fork fault count with and without the proactive
    GOT/metadata copy. *)

val ablate_syscall_entry : unit -> ablation_row list
(** Unixbench Context1 on μFork with sealed-capability entries vs forced
    trap entries — the cost of not having CHERI sealed entry points. *)

val ablate_isolation : unit -> ablation_row list
(** Redis 10 MB save time under No/Fault/Full isolation (+TOCTTOU). *)

(** {1 Fragmentation study (§6)} *)

type fragmentation_row = {
  scenario : string;
  churn : int;
  arena_mb : float;
  live_mb : float;
}

val ablate_fragmentation : ?churn:int -> unit -> fragmentation_row list
(** Virtual-arena high-water vs live bytes after fork/exit churn with
    uniform-size processes (areas recycle perfectly) and with interleaved
    mixed sizes (first-fit holes accumulate) — quantifying §6's
    fragmentation discussion. *)
