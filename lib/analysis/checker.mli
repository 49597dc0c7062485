(** The machine-state sanitizer.

    {!sweep} walks a quiescent machine — physical frame pool, every page
    table, the capability tags stored in every mapped page, and the
    μprocess table — and checks the state invariants S1–S11 of
    {!Invariant}. It is read-only and safe to run at any point where no
    fault is mid-resolution (between benchmark phases, at the end of a
    run, from the [check] subcommand).

    Capability-bounds checks (S3/S10) are skipped when the kernel runs
    with {!Ufork_sas.Config.No_isolation}: that configuration
    deliberately hands out address-space-wide capabilities, so bounds
    carry no information. Sealed capabilities are exempt everywhere —
    they are opaque invocation tokens (e.g. the syscall entry
    capability), not dereferenceable memory references. *)

val sweep : ?capflow:bool -> Ufork_sas.Kernel.t -> Invariant.violation list
(** All state-invariant violations, in deterministic order (frames by
    id, then mappings by table and ascending vpn); [[]] on a healthy
    machine. With [~capflow:true] (default [false]) a stored capability
    whose provenance stamp does not match the area holding it is
    reported as R4, the {!Capflow} taint diagnosis, instead of the
    S3/S10 wild-capability fallout it also causes. *)

exception Unsafe of string
(** Raised by {!assert_safe}; the message is the full
    {!Invariant.report}. *)

val assert_safe : ?capflow:bool -> Ufork_sas.Kernel.t -> unit
(** [sweep_and_lint] and raise {!Unsafe} on any violation. Benchmarks
    call this next to {!Ufork_sim.Trace.audit} so a run that corrupted
    machine state cannot silently report numbers. *)
