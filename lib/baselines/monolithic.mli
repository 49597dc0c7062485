(** The CheriBSD-like monolithic baseline (§5: "a classical POSIX fork on a
    CHERI-enabled FreeBSD").

    A multi-address-space kernel built from the same substrate as μFork:
    every process gets its own page table with an {e identical} virtual
    layout, so fork needs no relocation — the child's capabilities are
    valid as-is. Costs differ by mechanism, not by fiat:

    - syscalls trap (≥ 800-cycle exception round trip);
    - context switches between processes switch page tables and pay TLB
      maintenance;
    - fork duplicates proc/vmspace structures (heavy fixed cost) and copies
      vm_map/pmap entries at ~150 cycles each;
    - the child's pmap starts empty: its first touch of every resident
      page takes a soft fault (this, not copying, dominates a forked
      child walking a big database);
    - CoW: writes by either side copy the page, reads never do;
    - the allocator re-dirties a fraction of the live heap arena on the
      forked child's first allocation (the behaviour the paper measures as
      CheriBSD's high forked-Redis memory, Fig. 5). *)

type t

val boot :
  ?cores:int ->
  ?config:Ufork_sas.Config.t ->
  ?costs:Ufork_sim.Costs.t ->
  unit ->
  t
(** Defaults: 4 cores, {!Ufork_sas.Config.cheribsd_default},
    {!Ufork_sim.Costs.cheribsd}. *)

val system : t -> Ufork_core.System.t
(** The underlying {!Ufork_core.System.t} (engine + kernel + lifecycle). *)

val kernel : t -> Ufork_sas.Kernel.t
val engine : t -> Ufork_sim.Engine.t [@@ufork.test_seam]

val start :
  t ->
  ?affinity:int ->
  image:Ufork_sas.Image.t ->
  (Ufork_sas.Api.t -> unit) ->
  Ufork_sas.Uproc.t

val run : ?until:int64 -> t -> unit

val last_fork_latency : t -> int64 [@@ufork.test_seam]
(** Cycles inside the most recent fork call. *)
