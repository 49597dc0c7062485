(** Capflow: runtime capability-provenance (taint) checking — invariant
    {b R4}.

    Every capability is stamped with the provenance of the authority it
    was confined to ({!Ufork_cheri.Capability.prov}): the owning
    μprocess's area base, or {!Ufork_cheri.Capability.root_provenance}
    for the kernel root. R4 demands that every tagged, unsealed
    capability reachable in a μprocess's pages carries that μprocess's
    stamp — μFork's §4.2 relocation restamps on rebase, §4.3's
    tag-clearing removes the rest, and nothing may hand a μprocess the
    root. The static mirror is lint rule D13. *)

type t
(** The stream detector: consumes the [Cap_store]/[Cap_load] events the
    MMU paths publish and accuses provenance mismatches as they flow. *)

val create : Ufork_sas.Kernel.t -> t
(** [create k] resolves event addresses against [k]'s live areas and
    page tables (shared-memory windows and pages pending CoPA relocation
    are exempt, mirroring the S3/S10 gate). *)

val handle : t -> Ufork_util.Hb.event -> unit
(** Feed one bus event; non-capability events are ignored. *)

val violations : t -> Invariant.violation list
(** Accused R4 violations in stream order, deduplicated per
    (address, provenance) pair. *)

val scan_fork :
  Ufork_sas.Kernel.t -> child:Ufork_sas.Uproc.t -> Invariant.violation list
(** [scan_fork k ~child] sweeps the freshly forked child's checkable
    granules the moment the fork window closes: every tagged, unsealed
    capability must already carry the child's provenance. The workload
    layer wraps a capflow-checked machine's fork hook
    ({!Ufork_sas.Kernel.fork_hook}) with this scan. *)
