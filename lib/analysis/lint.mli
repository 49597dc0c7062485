(** The trace-protocol linter.

    Temporal rules (L1–L5 of {!Invariant}) over the mechanism-event
    stream a {!Ufork_sim.Trace.t} records. Where the {!Checker} proves
    the machine {e ended up} in a safe state, the linter proves the
    kernel {e went through} the required protocol: faults are classified
    under a page fault and resolved before the process faults again;
    fork's PTE downgrades are sealed by a TLB shootdown before the
    parent generates fault traffic; a capability-load fault relocates
    (tag scan) before the μprocess runs on.

    The linter is stream-suffix tolerant: when the bounded ring dropped
    old records ([dropped > 0]), precursor checks are skipped for the
    first surviving record of each process, because its true
    predecessor may be among the evicted records. End-of-stream checks
    still apply — the ring drops oldest first, so the tail is always
    complete. *)

val run :
  ?dropped:int -> Ufork_sim.Trace.record list -> Invariant.violation list
(** Violations in stream order. [dropped] defaults to 0 (the stream is
    complete from the beginning). *)

val of_trace : Ufork_sim.Trace.t -> Invariant.violation list
  [@@ufork.test_seam]
(** [run] over the trace's buffered records with its drop count. *)
