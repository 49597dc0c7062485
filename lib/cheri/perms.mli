(** CHERI capability permissions.

    A small, explicit subset of the CHERI permission bits that μFork's design
    depends on: data load/store, capability load/store, execute, the
    [system] ("access system registers") bit used to deny privileged
    instructions to μprocesses (§4.4), and the [seal]/[unseal] rights used
    for trapless system-call entry capabilities (§4.2).

    Permission sets are monotonic: they can only be narrowed, never widened
    ({!is_subset} and {!intersect} are the only ways to derive one from
    another besides removing individual bits). *)

type t

val empty : t
val all : t
(** Every permission, including [system] — only the kernel root capability
    carries this. *)

val load : t
val store : t
val execute : t
val load_cap : t
val store_cap : t
val system : t [@@ufork.test_seam]
(** Right to execute privileged (system-register) instructions. *)

val seal : t
val unseal : t

val union : t -> t -> t
val intersect : t -> t -> t
val remove : t -> t -> t [@@ufork.test_seam]
(** [remove p q] is [p] without the bits of [q]. *)

val has : t -> t -> bool
(** [has p q] is true iff every bit of [q] is present in [p]. *)

val is_subset : sub:t -> super:t -> bool
val equal : t -> t -> bool
val user_data : t
(** The permission set μFork grants for μprocess data capabilities:
    load/store of both data and capabilities, global — no execute, no
    system, no sealing rights. *)

val user_code : t
(** Permissions for μprocess code capabilities (PCC): load + execute. *)

val pp : Format.formatter -> t -> unit
(** Renders like "[ld st ldc stc x sys sl us g]" with absent bits omitted. *)

val to_int : t -> int [@@ufork.test_seam]
val of_int : int -> t [@@ufork.test_seam]
(** Raw bit representation, for storing permissions in simulated memory.
    [of_int] masks unknown bits. *)
