(** Object types for CHERI sealing.

    A sealed capability is immutable and non-dereferenceable until unsealed
    with an authority of matching object type. μFork uses a dedicated object
    type for kernel system-call entry capabilities, which trigger a safe
    transition to the system-call handler without a trap (§4.2, §4.4). *)

type t

val unsealed : t
(** The distinguished "not sealed" object type. *)

val syscall_entry : t
(** Object type reserved for the kernel's sealed entry capabilities. *)

val fresh : unit -> t [@@ufork.test_seam]
(** A new, unused object type (monotonically allocated; never equal to
    [unsealed] or [syscall_entry]). *)

val equal : t -> t -> bool
val is_sealed : t -> bool
(** True for any object type other than [unsealed]. *)

val pp : Format.formatter -> t -> unit
