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
(** Name of the running thread, or [""]. *)

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

    These perform effects and must be called from code running under
    {!spawn}; calling them elsewhere raises [Stdlib.Effect.Unhandled]. *)

val advance : int64 -> unit
(** Consume CPU: occupy the current core for the given number of cycles. *)

val advance_direct : t -> int -> bool
(** Try to consume [n] cycles for the running thread without performing
    the {!advance} effect: succeeds (returns [true], time passed, core
    still held) exactly when nothing — no ready thread, no heap event at
    or before the target, no [run ~until] deadline, no concurrently
    resumed thread — could observe the difference from the scheduled
    path. Returns [false] without side effects otherwise; the caller
    must then perform {!advance}. This is {!Trace.emit}'s charging fast
    path: on single-runnable-thread stretches it reduces charging to a
    few field writes. *)

val yield : unit -> unit
(** Go to the back of the ready queue (models sched_yield / cooperative
    scheduling points). *)

val sleep : int64 -> unit
(** Release the core and become runnable again after the given delay. *)

val current_time : unit -> int64
val current_tid : unit -> tid [@@ufork.test_seam]
val current_core : unit -> int [@@ufork.test_seam]

type waker
(** One-shot handle that makes a suspended thread runnable again. *)

val suspend : (waker -> unit) -> unit
(** Suspend the current thread, releasing its core. The callback receives
    the waker and typically stores it in a wait queue. Invoking the waker
    twice raises [Invalid_argument]. *)

val wake : waker -> unit
(** Make the suspended thread runnable at the current simulated time. *)

val waker_pending : waker -> bool
(** True until the waker has been used. Lets wait queues skip entries that
    were woken out of band (e.g. by signal delivery). *)

val waker_tid : waker -> tid
(** Tid of the thread a pending waker would resume, or [-1] once used.
    Lets lock release publish the handoff target on the Hb bus. *)
