(** Page-table entries.

    Beyond the classic R/W/X bits, entries carry the CHERI-specific
    {!cap_load_fault} permission bit used to implement Copy-on-Pointer-Access
    (§4.2: "an additional page-table permission bit present with CHERI,
    which triggers a fault when a capability is loaded from that page"),
    and a {!share} marker telling the fault handler why the page is mapped
    with reduced permissions. *)

type share =
  | Private  (** Not shared; permissions are final. *)
  | Cow_shared  (** Classic copy-on-write sharing (monolithic baseline, and
                    the parent side of μFork mappings). *)
  | Coa_shared  (** μFork Copy-on-Access: any access by the owner faults. *)
  | Copa_shared  (** μFork Copy-on-Pointer-Access: writes and capability
                     loads fault; data reads proceed. *)
  | Shm_shared
      (** Deliberate shared memory (§3.7): the same frames are mapped in
          several processes; fork shares them and never copies. *)

type t = {
  mutable frame : Phys.frame;
  mutable read : bool;
  mutable write : bool;
  mutable exec : bool;
  mutable cap_load_fault : bool;
  mutable share : share;
}

val make :
  ?read:bool ->
  ?write:bool ->
  ?exec:bool ->
  ?cap_load_fault:bool ->
  ?share:share ->
  Phys.frame ->
  t
(** Defaults: readable, writable, non-executable, no capability-load fault,
    private. *)

val private_page : read:bool -> write:bool -> exec:bool -> Phys.frame -> t
(** [make]'s private entry with no capability-load fault, taking no
    optional argument: dune's dev profile builds with [-opaque], so a
    cross-module call boxes each optional argument it passes. *)

val pp_share : Format.formatter -> share -> unit
