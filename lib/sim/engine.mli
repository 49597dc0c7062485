(** Deterministic discrete-event simulation engine with green threads.

    Models the evaluation machine of the paper: an ARM Morello development
    system with 4 cores at 2.5 GHz. Simulated computations are green
    threads (OCaml 5 effect handlers); a thread occupies one core while it
    runs and consumes simulated time only through {!advance}. Threads that
    {!yield}, {!sleep}, or block on {!Cond}/{!Lock} free their core, so
    I/O-overlap and lock-serialization behaviour (e.g. Unikraft's big
    kernel lock, Nginx workers yielding during network waits) emerge
    naturally.

    Scheduling is non-preemptive and deterministic. Every ready entry
    carries a global ready-sequence stamp; unpinned entries wait in one
    FIFO, each remembering its home core (the core it last ran on;
    initially tid mod cores), and pinned entries wait in a FIFO per
    affinity core. With a count of idle cores, dispatch runs the older
    of the unpinned head and the oldest pinned head whose core is idle,
    so the schedule is the single FIFO's and a dispatch costs O(1) while
    nothing is pinned, however many cores and threads there are. An
    unpinned entry runs on its home core when idle, else on the first
    idle core scanning upward from it — a steal that migrates and
    re-homes the thread. A pinned entry whose core is busy waits, never
    migrated and never shadowing a younger entry. Both choices are
    functions of stamps and core ids alone, so for a given seed and core
    count the schedule (and every trace derived from it) is
    bit-reproducible. *)

type t
type tid = int

val create : ?cores:int -> unit -> t
(** Default 4 cores; up to 1024 ([Invalid_argument] beyond — the SMP
    scaling study sweeps to 512). *)

val cores : t -> int

val steals : t -> int
(** Number of cross-queue work steals performed so far: an idle core
    running an entry homed on another core's queue. *)

val running_tid : t -> tid
(** The simulated thread currently executing host code on this engine,
    or [-1] when none is (boot code, the run loop between events). A
    plain field read — no effect dispatch — mirroring {!current_tid};
    this is what {!Trace.emit}'s fast path keys charging on. Maintained
    with save/restore around every resume, so nested execution (a
    running thread whose [wake] dispatches another thread onto an idle
    core) unwinds correctly. *)

val running_core : t -> int
(** Core occupied by the running thread, or [-1]; mirrors
    {!current_core} the same way. *)

val running_name : t -> string
(** Name of the running thread, or [""]: read from the thread table by
    {!running_tid}. *)

val now : t -> int64
(** Current simulated time in cycles. *)

val advanced : t -> int64
(** Total busy cycles ever consumed through {!advance}, summed across
    cores — unlike {!now}, unaffected by idle gaps or multi-core overlap.
    Counted when the advance is scheduled, so an advance truncated by
    [run ~until] is still included. This is the [elapsed] side of
    {!Trace.audit}. *)

val spawn : ?name:string -> ?affinity:int -> t -> (unit -> unit) -> tid
(** Register a new thread, runnable immediately. [affinity] pins it to one
    core. Threads may spawn further threads. *)

val run : ?until:int64 -> t -> unit
(** Process events until none remain (system quiescent: all threads
    finished or blocked) or simulated time would exceed [until]. When
    stopped by [until], [now] moves up to [until]; a deadline already
    behind [now] leaves the clock where it is. *)

val live_threads : t -> int [@@ufork.test_seam]
(** Threads spawned and not yet finished (includes blocked ones). *)

val blocked_threads : t -> int [@@ufork.test_seam]
(** Threads currently suspended on a waker. *)

(** {1 Operations available inside a thread}

    These must be called from code running under {!spawn}: the effects
    raise [Stdlib.Effect.Unhandled] elsewhere, and the engine-taking
    operations [Invalid_argument]. *)

val advance : t -> int -> unit
(** Consume CPU: occupy the current core for the given number of
    cycles. When nothing — no ready thread, no heap event at or before
    the target, no [run ~until] deadline, no concurrently resumed thread
    — could observe the difference, time passes by field writes alone,
    without performing an effect: {!Trace.emit}'s charging path, which
    on single-runnable-thread stretches reduces charging to a few field
    writes. Otherwise the thread suspends until the advance completes.
    Raises [Invalid_argument] on a negative count. *)

val yield : unit -> unit
(** Go to the back of the ready queue (models sched_yield / cooperative
    scheduling points). *)

val sleep : t -> int64 -> unit
(** Release the core and become runnable again after the given delay. *)

val current_time : unit -> int64
val current_tid : unit -> tid [@@ufork.test_seam]
val current_core : unit -> int [@@ufork.test_seam]

(** {1 Parking}

    A thread blocks in two steps: it takes the {!waker} its next park
    will wait on, registers it wherever a waking party will look (a
    wait queue, a kill slot), then {!park}s. Nothing may wake it in
    between. Wakers are plain ints, so storing one allocates nothing. *)

type waker = int
(** One-shot handle that makes a parked thread runnable again: the
    thread's tid and its park count, so a used or stale waker never
    matches a later park, of its own thread or of a later one. *)

val no_waker : waker
(** Never pending: the empty value of a waker slot. *)

val waker : t -> waker
(** The waker of the running thread's next {!park}. *)

val park : t -> unit
(** Suspend the running thread, releasing its core, until its waker is
    woken. *)

val wake : t -> waker -> unit
(** Make the parked thread runnable at the current simulated time.
    Raises [Invalid_argument] if the waker was already used (or is
    stale). *)

val waker_pending : t -> waker -> bool
(** True while the waker's thread is parked on it. Lets wait queues skip
    entries that were woken out of band (e.g. by signal delivery). *)

val waker_tid : t -> waker -> tid
(** Tid of the thread a pending waker would resume, or [-1] once used.
    Lets lock release publish the handoff target on the Hb bus. *)
