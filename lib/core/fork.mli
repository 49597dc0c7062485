(** μFork: forking a μprocess within the single address space (§3.5, §4.2).

    [install] wires the fork and fault hooks of a {!Ufork_sas.Kernel.t}:

    + {b Parent state duplication} — reserve a fresh contiguous area for
      the child, copy the parent's page-table entries (sharing frames per
      the configured {!Strategy.t}), proactively copy + relocate the GOT
      and the used allocator-metadata pages, duplicate file descriptors,
      and clone the allocator mirror rebased by the area displacement.
    + {b Post-copy phase} — allocate the child PID, relocate capability
      registers (the child continuation's [reloc]), create the child's
      thread, and let CoW/CoA/CoPA faults materialize the rest on demand.

    The fault hook also provides demand-zero heap materialization and the
    crash path for genuinely invalid accesses. *)

val install :
  ?proactive:bool -> Ufork_sas.Kernel.t -> strategy:Strategy.t -> unit
(** Raises [Invalid_argument] if the kernel is multi-address-space (μFork
    is by construction a single-address-space mechanism).

    [proactive] (default true) controls the eager copy of GOT and
    allocator-metadata pages at fork. Disabling it is an ablation: under
    CoPA the child still works (the first GOT load takes a
    capability-load fault), but every early GOT/metadata access becomes a
    fault — the bench quantifies that trade-off. Under CoA/CoPA it is
    safe; a hypothetical plain-CoW μFork would be {e incorrect} without
    it, which the test suite demonstrates. *)

exception Segfault of string
(** Raised back into application code for an unresolvable fault. *)

val last_fork_latency : Ufork_sas.Kernel.t -> int64 [@@ufork.test_seam]
(** Simulated cycles spent inside the most recent fork call on this
    kernel (measured by the hook itself, entry to return). *)
