(** Fault injection: prove the sanitizer, the linter and the dynamic
    detectors actually detect.

    Each scenario builds a small healthy machine (or a well-formed event
    stream), injects exactly one corruption, and runs the matching
    analysis. The contract — asserted by the test suite — is
    {e precision}: every scenario's violations are non-empty and all
    carry the scenario's [expected] invariant, so each invariant's
    detector fires on its own fault class and never misfires on a
    neighbouring one. The [clean_*] functions are the control group:
    the same construction without the injection reports nothing. *)

type scenario = {
  name : string;  (** ["S1-leaked-retain"], ["L4-missing-shootdown"], … *)
  expected : Invariant.t;  (** The one invariant the injection violates. *)
  detect : unit -> Invariant.violation list;
      (** Build, inject, analyse; the violations found. *)
}

val scenarios : scenario list [@@ufork.test_seam]
(** One injection per invariant: S1–S11 against {!Checker.sweep} on a
    live kernel, L1–L5 against {!Lint.run} on a hand-built stream. *)

val cheribsd_scenarios : scenario list [@@ufork.test_seam]
(** S1, S2, S7 and S9 again on a CheriBSD (multi-address-space)
    machine, where each process has its own page table; the S7 alias
    spans two of them. *)

val clean_machine : unit -> Invariant.violation list [@@ufork.test_seam]
(** The uninjected two-process machine the S-scenarios start from;
    expected [[]]. *)

val clean_cheribsd_machine : unit -> Invariant.violation list
  [@@ufork.test_seam]
(** The same on the CheriBSD machine {!cheribsd_scenarios} start from;
    expected [[]]. *)

val clean_protocol : unit -> Invariant.violation list [@@ufork.test_seam]
(** A well-formed stream exercising every protocol (CoW, CoPA write and
    cap-load, CoA, fork downgrade + shootdown); expected [[]]. *)

(** {1 Run-time injections}

    The must-fail controls of the dynamic detectors (R1–R4). Unlike the
    scenarios above, these arm a bug on a real booted machine before its
    workload starts; the run must then fail with exactly the one
    invariant the control [violates]. The table is the single source of
    the command-line flags ([ufork_sim check] and [explain]) and of the
    experiment harness's arming loop. *)

type injection =
  | Skip_rebase
      (** The next capability rebase is skipped
          ({!Ufork_core.Relocate.chaos_skip_rebase}, the one seam inside
          the mechanism). *)
  | Heap_smuggle
      (** The machine's fork hook is wrapped to carry one parent
          capability across a fork in an OCaml-heap cell and raw-store it
          into the child's meta page. *)
  | Leak_root
      (** A rogue thread stores the kernel root into the first running
          μprocess's GOT ({!Ufork_sas.Kernel.chaos_leak_root}). *)
  | No_bkl
      (** Every kernel lock dropped, plus one rogue unlocked write to
          the fork-latency gauge. *)
  | Unshard  (** Only the stats shard's lock dropped. *)
  | Invert_shard_order
      (** A rogue thread nests a pt-shard pair in descending order. *)
  | Stall_shard
      (** A rogue thread holds pt-shard 0 across a long sleep. *)

type control = {
  injection : injection;
  flag : string;  (** the command-line spelling, e.g. ["chaos-no-bkl"] *)
  doc : string;  (** its [--help] text (cmdliner markup) *)
  violates : Invariant.t;  (** the one invariant the run must fail with *)
  arm : Ufork_sas.Kernel.t -> unit;
      (** Arm the injection on a freshly booted machine, before any
          workload thread starts. *)
}

val injections : control list
(** One control per injection, in arming order. *)
