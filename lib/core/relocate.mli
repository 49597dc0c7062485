(** Capability relocation: the tag-scan rewrite of §4.2.

    When μFork copies a page for a child, the copy is scanned in 16-byte
    increments for valid capability tags. Every tagged capability whose
    target lies outside the child's dedicated area is rebased to the
    corresponding location inside the child's area (areas of a forked pair
    have identical internal layout, so the rebase is a fixed displacement
    from the capability's source area). *)

type outcome = {
  granules_scanned : int;  (** Always 256 per page. *)
  relocated : int;  (** Tagged capabilities rewritten. *)
}

val chaos_skip_rebase : bool ref
(** Chaos (capflow cross-certification): when set, the next capability
    that would be rebased is instead left untouched — parent target,
    parent provenance — and the flag self-clears. The runtime R4 taint
    invariant, not any architectural check, must catch the leak. The
    experiment harness assigns it from its run plan at every boot. *)

val relocate_cap :
  owner_area:(int -> (int * int) option) ->
  child_base:int ->
  child_bytes:int ->
  Ufork_cheri.Capability.t ->
  Ufork_cheri.Capability.t
(** [relocate_cap ~owner_area ~child_base ~child_bytes cap] returns [cap]
    unchanged when it already targets the child area; otherwise rebases it
    by [(child_base - source_base)], where [owner_area cursor] locates the
    source μprocess area containing the capability's cursor. Capabilities
    whose owner cannot be determined (e.g. dangling) get their tag cleared
    — they must not leak a foreign authority into the child (§4.3).

    Every tagged capability that survives the scan is provenance-stamped
    with [child_base] (including the already-in-child fast path — a
    restamp [Capability.equal] cannot see, so relocation counts and
    goldens are unchanged). *)

val relocate_page :
  owner_area:(int -> (int * int) option) ->
  child_base:int ->
  child_bytes:int ->
  Ufork_mem.Page.t ->
  outcome
(** Scan and rewrite a page in place. *)
