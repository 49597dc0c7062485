(** Kernel configuration: parameterized isolation (§3.6, R4).

    The paper argues different fork use-cases need different isolation
    levels: adversarial privilege separation (qmail, U3) wants everything;
    trusted-but-buggy concurrency (Nginx, U2) wants fault isolation without
    TOCTTOU copies; fully-trusted CoW snapshots (Redis, U4) can disable
    protections. These are the three [isolation] points, with [toctou]
    togglable independently as in the evaluation. *)

type isolation =
  | No_isolation
      (** Capabilities are not narrowed to the μprocess; no syscall
          argument validation. The classic unikernel trust model. *)
  | Fault_isolation
      (** Memory isolation via bounded capabilities + privilege checks,
          but no kernel-side argument hardening. *)
  | Full_isolation
      (** Fault isolation + syscall argument validation. *)

type syscall_mode =
  | Sealed_entry  (** CHERI sealed-capability call: no trap (μFork). *)
  | Trap  (** Classic exception-based entry (monolithic kernels). *)

type area_fit =
  | First_fit  (** Fast; fragments badly under mixed-size churn (§6). *)
  | Best_fit  (** Smallest adequate hole; mitigates fragmentation. *)

type lock_mode =
  | Big_kernel_lock
      (** Legacy: serialize all kernel code across cores behind one
          recursive lock (Unikraft SMP, §4.5). Kept as the
          compatibility flavour and as the scaling baseline the SMP
          bench measures against. *)
  | Sharded_locks
      (** Per-resource locks (frame pool, page-table shards, μprocess
          table, fd tables, stats), each registered with the
          happens-before bus so the race detector certifies the
          split. *)

type t = {
  isolation : isolation;
  toctou : bool;
      (** Copy by-reference syscall buffers to kernel memory before
          validation and back after (§4.4). *)
  syscall_mode : syscall_mode;
  lock_mode : lock_mode;
      (** Kernel locking discipline; {!Sharded_locks} everywhere except
          the legacy Nephele flavour. *)
  parent_touch_pages : int;
      (** Pages of its own working set (stack, globals) a μprocess writes
          immediately around a fork — drives the immediate CoW/CoA/CoPA
          fault traffic after (and, for CoA, during) the call. *)
  child_touch_pages : int;
      (** Working-set pages the child writes as it starts running. *)
  arena_pretouch_fraction : float;
      (** Fraction of the live heap the allocator re-dirties in a forked
          child on its first allocation. Models CheriBSD's observed
          allocator behaviour (Fig. 5's 56 MB row, which the paper
          attributes to "higher allocator memory consumption"); 0 for
          μFork's per-μprocess static heaps. *)
  kernel_overhead_bytes : int;
      (** Per-process kernel state (proc struct, kernel stack, fd table,
          page-table pages), counted in the per-process memory figures. *)
  aslr_seed : int64 option;
      (** When set, randomize the base of each fresh μprocess area (§3.7:
          "ASLR can be implemented by randomizing the base offset of the
          contiguous memory area dedicated to each μprocess"). *)
  area_fit : area_fit;
      (** μprocess-area placement policy — the knob the fragmentation
          study sweeps (§6 proposes size classes/compaction as future
          work; best-fit is the cheap mitigation). *)
}

val ufork_default : t
(** Full isolation + TOCTTOU, sealed entries, sharded kernel locks. *)

val ufork_fast : t
(** Fault isolation, no TOCTTOU — the production point used for most
    μFork rows in the evaluation. *)

val cheribsd_default : t
val nephele_default : t
val linux_default : t

val with_aslr : int64 -> t -> t [@@ufork.test_seam]
val with_area_fit : area_fit -> t -> t
val with_isolation : isolation -> t -> t

val with_lock_mode : lock_mode -> t -> t
(** The SMP bench boots the same flavour under both modes to measure
    what the big lock costs. *)
