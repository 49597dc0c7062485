(** The shared fork skeleton all three OS flavours run through.

    Every fork in the simulator — μFork's in-area duplication, the
    monolithic baseline's CoW vmspace copy, the VM-clone baseline's
    whole-image duplication — performs the same fixed sequence: charge
    the fixed fork cost, duplicate the file table, allocate the child
    μprocess, duplicate parent state, clone the allocator mirror, run
    flavour-specific post-copy work, create the child thread and spawn
    it, then gauge the fork latency. {!run} owns that spine; the
    flavours supply only the policy hooks. *)

module Capability = Ufork_cheri.Capability

exception Segfault of string
(** Raised back into application code for an unresolvable fault. *)

type hooks = {
  pre_create : Ufork_sas.Kernel.t -> parent:Ufork_sas.Uproc.t -> unit;
      (** After the fixed fork charge, before the child exists (the
          VM-clone baseline charges its domain creation here). *)
  duplicate :
    Ufork_sas.Kernel.t ->
    parent:Ufork_sas.Uproc.t ->
    child:Ufork_sas.Uproc.t ->
    unit;
      (** Page disposition: walk the parent's mappings and share, copy
          or downgrade them into the child (typically via the
          {!Memops} range operations). *)
  post_copy :
    Ufork_sas.Kernel.t ->
    parent:Ufork_sas.Uproc.t ->
    child:Ufork_sas.Uproc.t ->
    pte_copies:int ->
    unit;
      (** After the allocator clone: TLB shootdowns, TOCTTOU
          revalidation, register relocation, the parent's working-set
          re-touch. [pte_copies] is the number of page-table entries the
          [duplicate] hook charged (metered around the call). *)
  child_prologue : Ufork_sas.Kernel.t -> child:Ufork_sas.Uproc.t -> unit;
      (** Runs first on the child's own thread (e.g. touching its stack
          working set), before the application continuation. *)
  reloc :
    (Ufork_sas.Kernel.t ->
    child:Ufork_sas.Uproc.t ->
    Capability.t ->
    Capability.t)
    option;
      (** Capability-register translation for the child (μFork's
          displacement relocation); [None] = identity. *)
}

val default : hooks
(** All hooks no-ops, [reloc = None]; build flavours with
    [{ default with ... }]. *)

val run :
  Ufork_sas.Kernel.t ->
  hooks ->
  Ufork_sas.Uproc.t ->
  (Ufork_sas.Api.t -> unit) ->
  int
(** Execute one fork through the spine; returns the child pid. Sets the
    {!Ufork_sim.Trace.last_fork_latency_key} gauge on the way out. *)

val stack_touch_vpns : Ufork_sas.Uproc.t -> int -> int list
(** The top-[n] stack pages (top-down) — the write working set a process
    touches immediately around a fork. *)

val demand_zero : Ufork_sas.Kernel.t -> Ufork_sas.Uproc.t -> addr:int -> unit
(** Materialize the page containing [addr] with a fresh zero frame,
    charging one demand-zero fault. *)

val resolve_unmapped :
  Ufork_sas.Kernel.t -> Ufork_sas.Uproc.t -> addr:int -> outside:string -> unit
(** The shared unmapped-address fault arm: demand-zero inside the heap
    and allocator-metadata regions, {!Segfault} anywhere else ([outside]
    names the address-space flavour in the out-of-area message). *)
