(** CHERI capabilities (simulated).

    A capability is an unforgeable, bounded, permissioned reference to a
    range of the single virtual address space. This module enforces the
    architectural rules μFork depends on (§2.4, §4.2–4.4):

    - {b Monotonicity}: bounds and permissions of a derived capability can
      only shrink. Attempting to widen raises {!Violation}.
    - {b Sealing}: a sealed capability cannot be dereferenced or modified;
      it can only be unsealed by an authority of matching object type.
    - {b Tags}: a capability is valid only while its tag is set; the tag is
      cleared by any illegitimate manipulation. Tag propagation through
      memory is implemented by {!Ufork_mem.Page}.

    Addresses are plain [int]s (the simulated 64-bit virtual address space
    comfortably fits OCaml's 63-bit ints). *)

type addr = int

exception Violation of string
(** Raised on any operation the CHERI architecture would fault on:
    widening bounds, adding permissions, dereferencing a sealed or untagged
    capability, out-of-bounds access, missing permission. *)

type t

(** {1 Construction} *)

val root : unit -> t
(** The hardware root capability: full address space, all permissions,
    valid tag. Only the kernel may hold this (boot code receives it). *)

val mint : parent:t -> base:addr -> length:int -> perms:Perms.t -> t
(** [mint ~parent ~base ~length ~perms] derives a new capability.
    Enforces monotonicity: the new bounds must lie within [parent]'s
    bounds and [perms] must be a subset of [parent]'s permissions.
    The cursor is set to [base].
    @raise Violation if monotonicity would be broken or [parent] is sealed
    or untagged. *)

val null : t
(** The canonical untagged capability (all-zero): comparisons against it
    model null-pointer checks. *)

(** {1 Accessors} *)

val base : t -> addr
val length : t -> int
val limit : t -> addr
(** [limit c] is [base c + length c] (one past the last addressable byte). *)

val cursor : t -> addr
val perms : t -> Perms.t
val otype : t -> Otype.t
val is_sealed : t -> bool
val tag : t -> bool

(** {1 Provenance (capflow, invariant R4)}

    Every capability carries a provenance stamp identifying the authority
    it was confined to: {!root_provenance} for kernel-root-derived
    authority, otherwise the base address of the μprocess area it was
    minted or relocated for. The stamp is pure metadata — it never
    affects architectural checks and is deliberately ignored by {!equal},
    so relocation counts and golden traces are unchanged by stamping. *)

val root_provenance : int
(** The sentinel provenance of the hardware root (and [null]). *)

val prov : t -> int
(** The provenance stamp currently carried by [t]. *)

val stamp : t -> prov:int -> t
(** [stamp t ~prov] is [t] restamped with provenance [prov]. Kernel-only
    bookkeeping: user code never observes the stamp. *)

(** {1 Manipulation} *)

val with_cursor : t -> addr -> t
(** Move the cursor. The cursor may point anywhere (even out of bounds, as
    on real CHERI); bounds are only checked at dereference time.
    @raise Violation if [t] is sealed (sealed capabilities are immutable). *)

val incr_cursor : t -> int -> t
(** [incr_cursor c n] is [with_cursor c (cursor c + n)]. *)

val restrict_perms : t -> Perms.t -> t
(** Intersect permissions (monotonic by construction). *)

val set_bounds : t -> base:addr -> length:int -> t
(** Narrow bounds; cursor is clamped into the new bounds.
    @raise Violation if the new bounds exceed the old ones. *)

val clear_tag : t -> t
(** The untagged copy of [t] — what lands in memory after a non-capability
    overwrite of part of a stored capability. *)

(** {1 Sealing} *)

val seal : authority:t -> t -> Otype.t -> t
(** [seal ~authority c ot] seals [c] with object type [ot]. [authority]
    must be tagged, unsealed, and carry {!Perms.seal}.
    @raise Violation otherwise, or if [c] is already sealed. *)

val unseal : authority:t -> t -> t
(** [unseal ~authority c] yields the unsealed twin of [c]. [authority] must
    carry {!Perms.unseal}. @raise Violation on object-type mismatch. *)

val check_invoke : t -> unit
(** The checks of {!invoke} without building the PCC it returns: what a
    caller that only needs the entry to be legal (the kernel's syscall
    entry) runs. @raise Violation unless [t] is a tagged, sealed,
    executable capability. *)

val invoke : t -> t
(** Branch-to-sealed-capability: models CHERI's sealed-entry invocation used
    for trapless syscalls. Returns the unsealed capability the CPU would
    install as PCC. @raise Violation unless [t] is a tagged, sealed,
    executable capability. *)

(** {1 Checked access} *)

val check_access : t -> perm:Perms.t -> addr:addr -> len:int -> unit
(** [check_access c ~perm ~addr ~len] validates a [len]-byte access at
    [addr]: tag set, not sealed, [perm] present, and
    [base c <= addr && addr + len <= limit c].
    @raise Violation naming the failed check. *)

val contains : t -> addr -> bool
(** [contains c a] is true iff [a] is within [c]'s bounds. *)

val in_range : t -> lo:addr -> hi:addr -> bool
(** True iff [c]'s bounds lie entirely within [lo, hi). Used by μFork's
    relocation scan to decide whether a stored capability points into the
    parent μprocess area (§4.2). *)

(** {1 Relocation (used by μFork's copy engine)} *)

val rebase : t -> delta:int -> t
(** [rebase c ~delta] shifts base and cursor by [delta] bytes keeping
    length, permissions, seal state and tag. This models μFork's relocation
    of an absolute memory reference from the parent's area to the child's.
    Note this is a {e kernel} operation performed with kernel authority
    while copying pages; user code has no way to express it. *)

(** {1 Misc} *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
