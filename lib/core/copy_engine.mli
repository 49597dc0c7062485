(** Fault-path copy resolution for μFork.

    Implements the three-step copy of §4.2 ("the child page table entry is
    changed to point to a free physical page ... the page is copied ...
    the copied page is scanned in 16-byte increments") plus the in-place
    claim optimization when the shared frame's refcount has already dropped
    to one. These are the per-page singletons taken on CoW/CoA/CoPA
    faults; the batched fork-time range operations live in {!Memops}. *)

module Capability = Ufork_cheri.Capability

val resolve_child_copy :
  Ufork_sas.Kernel.t -> Ufork_sas.Uproc.t -> vpn:int -> unit
(** Give the child a private, relocated copy of the shared page mapped at
    [vpn] in its area: allocate + copy + scan + relocate (or claim the
    frame in place when it is no longer shared), then restore the region's
    natural permissions. Charges every event. *)

val resolve_parent_cow :
  Ufork_sas.Kernel.t -> Ufork_sas.Uproc.t -> vpn:int -> unit
(** Classic CoW write resolution for the parent side: private copy, no
    relocation (its capabilities already target its own area). *)

val touch_write : Ufork_sas.Kernel.t -> Ufork_sas.Uproc.t -> vpn:int -> unit
(** Simulate a user write to a page: resolves any pending share exactly as
    a write fault would (used to model post-fork working-set writes and
    the monolithic allocator's arena re-dirtying). *)
