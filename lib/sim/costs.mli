(** Cycle-cost model of the simulated machines.

    Every latency the benchmark harness reports is the sum of counted
    mechanism events multiplied by the per-event costs below. The constants
    are calibrated once, globally, against the paper's Morello measurements
    (§5, 2.5 GHz): hello-world fork latency (54 μs μFork / 197 μs CheriBSD /
    10.7 ms Nephele), Unixbench Context1 round trips (2.45 μs vs 4.19 μs per
    iteration), the 23.2 ms full synchronous copy of a 144 MB footprint, and
    the Redis save-time slopes. The same preset is used by {e all}
    experiments of a given system — there is no per-figure tuning — so
    crossovers and scaling trends are genuine predictions. *)

type t = {
  label : string;
  (* Privilege and scheduling transitions. *)
  syscall : int64;
      (** Round-trip user↔kernel entry cost. μFork: sealed-capability call,
          no exception (§4.4); monolithic: includes the trap. *)
  context_switch : int64;
      (** Thread/process switch. Monolithic adds the address-space switch
          below on cross-process switches. *)
  address_space_switch : int64;
      (** Page-table switch + TLB flush; zero in a single address space. *)
  page_fault : int64;  (** Fault delivery + handler entry/exit. *)
  soft_fault : int64;
      (** Monolithic demand-mapping fault: the page is resident but the
          child pmap entry is absent after fork (first touch). Zero for
          μFork, which copies PTEs eagerly. *)
  (* fork machinery. *)
  fork_fixed : int64;
      (** Process bookkeeping: proc/μproc struct, fd-table duplication, PID
          allocation, scheduler registration. *)
  thread_create : int64;
  exit_fixed : int64;  (** Process teardown + parent wakeup. *)
  pte_copy : int64;  (** Copy/install one page-table entry at fork. *)
  pte_protect : int64;  (** Permission change of one PTE. *)
  tlb_ipi : int64;
      (** One cross-core IPI round-trip of a TLB shootdown: interrupt a
          remote core, invalidate, acknowledge. A shootdown batch charges
          this once per remote core ({!Ufork_sim.Event.t.Tlb_shootdown});
          the linear-in-cores term that eventually caps fork scaling. *)
  page_alloc : int64;
  page_copy : int64;  (** memcpy of one 4 KiB page. *)
  granule_scan : int64;
      (** Inspect one 16-byte granule's tag during μFork's relocation scan
          (256 per page). *)
  cap_relocate : int64;  (** Rebase one tagged capability (§4.2). *)
  domain_create : int64;
      (** VM-clone fixed cost: new Xen-like domain, event channels, device
          re-plumbing (Nephele). Zero elsewhere. *)
  (* Data movement and I/O. *)
  copy_per_byte : float;
      (** User↔kernel buffer copy (read/write/pipe payloads). Higher on the
          monolithic baseline (double copy through the page cache). *)
  toctou_per_byte : float;
      (** Extra copy of referenced syscall buffers when TOCTTOU protection
          is enabled (§4.4); charged on top of [copy_per_byte]. *)
  file_op : int64;  (** open/close/stat/rename on the ramdisk VFS. *)
  pipe_op : int64;  (** Per pipe read/write beyond byte costs. *)
}

val ufork : t
(** Unikraft + μFork on Morello (run under bhyve, as in the paper). *)

val cheribsd : t
(** CheriBSD 23.11 pure-capability monolithic kernel, bare metal. *)

val nephele : t
(** Nephele VM cloning (numbers from the Nephele paper replayed, §5). *)

val linux_ref : t
(** A reference aarch64 Linux point, used only for the context row of
    Fig. 5 (7 MB forked-Redis RSS). *)

val pp : Format.formatter -> t -> unit

val bytes_cost : float -> int -> int
(** [bytes_cost per_byte n] is [per_byte * n] rounded, as cycles (a
    native int, like {!Event.cost}: an [int64] result would be boxed on
    every byte-scaled emission). *)
