(** The copy engine's machine room: every physical-page duplication and
    every page-range page-table operation in the simulator lives here.

    Batching contract: the range operations emit {e one}
    [Pte_copy n] / [Page_copy_eager n] / [Page_alloc n] /
    [Granule_scan g] / [Cap_relocate c] record per range instead of one
    per page. Because each of those events has a preset-linear cost
    (cost of [n] units = [n * unit], exact integer multiply) and
    {!Ufork_sim.Meter} counts payload units, a batched emission charges
    the same cycles and bumps the same counters as the per-page
    singletons it replaces — only the trace-ring record count shrinks
    (a 100 MB fork charges one record per region, not ~25k). The golden
    equivalence test pins this down against pre-refactor recordings. *)

module Pte = Ufork_mem.Pte

val owner_area : Ufork_sas.Kernel.t -> int -> (int * int) option
(** Locate the (base, bytes) μprocess area containing an address, across
    live and zombie processes (a predecessor query on the kernel's area
    index). *)

val natural_perms :
  Ufork_sas.Uproc.t ->
  addr:int ->
  read:bool ref ->
  write:bool ref ->
  exec:bool ref ->
  unit
(** The region's base permissions (code r-x, everything else rw-). *)

val restore_perms : Ufork_sas.Uproc.t -> vpn:int -> Pte.t -> unit
(** Reset an entry to its region's natural permissions and mark it
    private (the final step of every copy resolution). *)

val copy_page_contents : src:Ufork_mem.Page.t -> dst:Ufork_mem.Page.t -> unit
(** Duplicate one page: bytes plus capability granules with tags. The
    only raw page-copy loop outside [lib/mem] (lint-enforced). *)

val duplicate_frame :
  Ufork_sas.Kernel.t ->
  Ufork_sas.Uproc.t ->
  Ufork_mem.Phys.frame ->
  Ufork_mem.Phys.frame
(** Fault-path singleton: allocate a fresh frame (charging [page_alloc]
    to the process) and copy the given frame's contents into it. *)

val share_range :
  Ufork_sas.Kernel.t ->
  parent:Ufork_sas.Uproc.t ->
  child:Ufork_sas.Uproc.t ->
  delta_pages:int ->
  ?downgrade:bool ->
  ?page_event:Ufork_sim.Event.t ->
  child_pte:(Pte.t -> Pte.t) ->
  int list ->
  bool
(** Alias a batch of parent pages into the child at
    [parent_vpn + delta_pages], charging one [Pte_copy n]. For each page
    (ascending order of the given list): when [downgrade] (default), a
    writable parent entry drops to read-only {!Pte.Cow_shared}; the
    optional [page_event] is emitted (e.g. [Shm_share]); the child entry
    is built by [child_pte] from the (post-downgrade) parent entry and
    installed with {!Ufork_mem.Page_table.map_shared}. Returns whether
    any parent entry was actually downgraded — the caller decides
    whether a TLB shootdown is owed. *)

val copy_range :
  Ufork_sas.Kernel.t ->
  parent:Ufork_sas.Uproc.t ->
  child:Ufork_sas.Uproc.t ->
  delta_pages:int ->
  int list ->
  unit
(** Eagerly copy a batch of parent pages into the child at
    [parent_vpn + delta_pages]: one [Pte_copy n] + [Page_copy_eager n] +
    [Page_alloc n] charge, then a per-page contents copy and map. Each
    copy is relocated (μFork §4.2): its granules are scanned,
    area-internal capabilities move by the child displacement, and the
    region's natural permissions are restored. One batched
    [Granule_scan]/[Cap_relocate] pair per range. *)

val copy_all :
  Ufork_sas.Kernel.t -> parent:Ufork_sas.Uproc.t -> child:Ufork_sas.Uproc.t ->
  unit
(** A VM clone's duplicate: copy every page the parent maps to the same
    vpn in the child, which must have its own table. One [Pte_copy n] +
    [Page_copy_eager n] + [Page_alloc n] charge; each child entry keeps
    its parent's permissions and the bytes and tags are copied as they
    are, with no relocation. The parent's table is walked in ascending
    vpn order and each frame is taken as the walk reaches its page, so
    no list of vpns or frames is built. *)

val map_zero_range :
  Ufork_sas.Kernel.t ->
  Ufork_sas.Uproc.t ->
  base:int ->
  bytes:int ->
  ?read:bool ->
  ?write:bool ->
  ?exec:bool ->
  unit ->
  unit
(** Map fresh zero frames over every unmapped page of the range with one
    batched [Page_alloc] charge (delegates to
    {!Ufork_sas.Kernel.map_zero_pages}). *)
