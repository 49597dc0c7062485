(** The catalogue of machine-state and trace-protocol invariants.

    Every property the sanitizer ({!Checker}) or the protocol linter
    ({!Lint}) can report is one constructor here, with a stable short id
    ([S1]–[S10] for state invariants swept over a live machine, [L1]–[L5]
    for temporal rules checked over the mechanism-event stream), a
    severity, and a one-line description. Fault-injection tests
    ({!Chaos}) are built so that each injected corruption trips exactly
    one of these — the catalogue doubles as the sanitizer's coverage
    map. *)

type severity =
  | Critical  (** Memory safety is gone: wild capability, frame misuse. *)
  | Error  (** Protocol or bookkeeping broken; results untrustworthy. *)
  | Warning  (** Suspicious but survivable. *)

type t =
  (* State invariants: Checker.sweep. *)
  | Refcount_mismatch
      (** S1: a live frame's refcount equals its number of page-table
          mappings (plus one kernel reference for named segments). *)
  | Free_frame_state
      (** S2: a free frame is mapped nowhere and holds no tagged
          granules. *)
  | Cap_bounds
      (** S3: every loadable stored capability stays inside its owning
          μprocess area (wild pointer otherwise). *)
  | Cow_writable  (** S4: a CoW-shared mapping is never writable. *)
  | Share_perms
      (** S5: CoPA mappings trap capability loads and never writes
          through; CoA mappings trap every access. *)
  | Shm_coherence
      (** S6: [Shm_shared] mappings and named-segment frames coincide. *)
  | Private_aliased
      (** S7: a multiply-mapped anonymous frame has at least one mapping
          that knows it is shared. *)
  | Orphan_mapping
      (** S8: every mapping belongs to a live or zombie process area. *)
  | Phys_accounting
      (** S9: the pool's in-use counter equals the live-frame census. *)
  | Cross_area_cap
      (** S10: no stored capability grants access to another μprocess's
          area (single address space, isolation on). *)
  | Parent_child_leak
      (** S11: the reverse-direction fork leak — no tagged capability
          stored in a {e parent} page targets its child's area. S10's
          cross-area check reports this direction as S11 so a post-fork
          parent→child leak is distinguishable from a generic wild
          capability. *)
  (* Trace-protocol rules: Lint.run. *)
  | Cow_protocol
      (** L1: a CoW write fault is classified under a page fault and
          resolved by a parent-side copy or in-place claim before the
          process faults again. *)
  | Copa_protocol
      (** L2: a CoPA write/capability-load fault is resolved by a child
          copy or in-place claim. *)
  | Coa_protocol
      (** L3: a CoA access fault is resolved by a child copy or in-place
          claim. *)
  | Tlb_flush_protocol
      (** L4: after fork downgrades live PTEs, no fault traffic from the
          parent until the TLB shootdown closes the downgrade batch. *)
  | Copa_relocation
      (** L5: a capability-load fault triggers a tag scan (relocation)
          before the faulting process runs on. *)
  (* Dynamic race detection: Race.violations. *)
  | Data_race
      (** R1: every pair of conflicting writes to shared kernel state
          (page-table entries, trace gauges) is ordered by a
          happens-before edge — big-kernel-lock hand-off, spawn, or
          wakeup. Flagged by the vector-clock detector ({!Race}). *)
  | Lock_order
      (** R2: the runtime lock-acquisition graph stays a DAG — no thread
          ever acquires lock [b] while holding lock [a] if some thread
          acquires [a] while holding [b] — and nested page-table shards
          are taken in ascending index order. Flagged by the acquisition
          -graph checker ({!Lockdep}); the static mirror is lint rule
          D10. *)
  | Lock_stall
      (** R3: no single lock's wait edges dominate an analyzed
          interval's critical path (the causal analyzer's stall alarm;
          tripped deliberately by [explain --chaos-stall-shard]). *)
  | Cap_provenance
      (** R4: the capflow taint invariant — every tagged capability
          reachable in a μprocess's pages carries that μprocess's
          provenance stamp: rebased or freshly minted for it, never the
          kernel root's authority and never a stale parent stamp left by
          a skipped relocation. Checked on the [Cap_store]/[Cap_load]
          stream, at every fork completion, and during
          {!Checker.sweep} when armed ({!Capflow}); the static mirror is
          lint rule D13. *)

val all : t list [@@ufork.test_seam]
(** Catalogue order: S1–S11, L1–L5, then R1–R4. *)

val id : t -> string [@@ufork.test_seam]
(** ["S1"].."( S10"], ["L1"]..["L5"] — stable across releases. *)

val name : t -> string [@@ufork.test_seam]
(** Stable kebab-case slug, e.g. ["refcount-mismatch"]. *)

(** {1 Violations} *)

type violation = {
  invariant : t;
  subject : string;  (** What is broken: ["frame 17"], ["pid 3 vpn 0x41"]. *)
  detail : string;  (** The counterexample: observed vs expected. *)
}

val report : violation list -> string
(** Human-readable multi-line report; [""] when the list is empty. *)
