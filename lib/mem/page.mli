(** A 4 KiB page of tagged memory.

    Representation: the raw bytes are a [Bytes.t] allocated on the
    page's first store (byte write, integer write or capability store);
    until then the page owns no storage. The capability tags live in a
    flat table of 256 slots, one per 16-byte granule, allocated on the
    first tagged store, plus a count of set slots. A granule's tag is
    set iff its slot holds a capability — exactly CHERI's model where a
    valid capability in DRAM is a 16-byte value plus an out-of-band tag
    bit, and any non-capability store to the granule clears the tag
    (§2.4). A page whose count is zero skips every tag walk; scans visit
    slots in ascending granule order, so no sort is needed.

    Two contracts hold whatever the representation:
    - {b an unwritten page reads as zeros}: every read of a never-written
      page (bytes, integers, capability loads) sees zeros and clear tags,
      and reads never allocate page storage;
    - {b a recycled frame is indistinguishable from a fresh one}: after
      {!clear} the page is back in the {!create} state, storage
      included.

    Pages may share a bounded {!pool} of spare storage: a page that
    drops its bytes or tag table ({!clear}, {!clear_all_tags}, a
    {!copy_into} from an unwritten or untagged source) hands them to
    its pool while the pool has room, and its next first store or copy
    takes one back instead of allocating. A reused buffer is
    zero-filled (or overwritten whole by a copy) and a reused table is
    all clear, so neither contract can tell.

    The first 8 bytes of a capability granule mirror the capability's cursor
    so that integer reads of a stored pointer see a plausible address, as
    they would on hardware. *)

type t

type pool
(** Spare byte buffers and tag tables, at most [bound] of each. One
    pool serves every page of one machine and is not shared across
    domains. *)

val pool : bound:int -> pool
val pool_bound : pool -> int [@@ufork.test_seam]

val spare_buffers : pool -> int [@@ufork.test_seam]
(** Byte buffers the pool holds now (at most {!pool_bound}). *)

val spare_tables : pool -> int [@@ufork.test_seam]
(** Tag tables the pool holds now (at most {!pool_bound}). *)

val create : unit -> t
(** A page reading as zeros with all tags clear; owns no storage. Its
    storage goes to the GC when dropped (a pool of bound 0). *)

val create_in : pool -> t
(** As {!create}, for a page that takes and returns storage through
    [pool]. *)

val clear : t -> unit
(** Back to the {!create} state: the bytes read as zeros again, every
    tag is clear and the storage is released (to the page's pool while
    it has room). Frame reuse from a freelist goes through this so a
    recycled page is indistinguishable from a fresh one. *)

val copy : t -> t [@@ufork.test_seam]
(** Deep copy: bytes and all tagged capabilities, in fresh storage; the
    copy shares [t]'s pool. *)

val copy_into : src:t -> dst:t -> unit
(** Overwrite [dst] with [src]: one copy of the bytes and of the tag
    table. An unwritten [src] leaves [dst] unwritten (reading zeros). *)

val written : t -> bool [@@ufork.test_seam]
(** Whether the page owns byte storage, i.e. has been stored to since it
    was created or last {!clear}ed. Reads never make it [true]. *)

(** {1 Raw data} *)

val read_bytes : t -> off:int -> len:int -> bytes [@@ufork.test_seam]

val read_into : t -> off:int -> len:int -> bytes -> pos:int -> unit
(** [read_into p ~off ~len dst ~pos] blits [len] bytes of the page at
    [off] into [dst] at [pos]: no intermediate buffer. *)

val write_bytes : t -> off:int -> bytes -> unit [@@ufork.test_seam]
(** Clears the tag of every granule the write overlaps. *)

val write_from : t -> off:int -> bytes -> pos:int -> len:int -> unit
(** [write_from p ~off src ~pos ~len] blits [len] bytes of [src] from
    [pos] into the page at [off], clearing overlapped tags like
    {!write_bytes}. *)

val read_u8 : t -> off:int -> int [@@ufork.test_seam]
val write_u8 : t -> off:int -> int -> unit [@@ufork.test_seam]
val read_u64 : t -> off:int -> int64 [@@ufork.test_seam]
val write_u64 : t -> off:int -> int64 -> unit [@@ufork.test_seam]
(** 8-byte accesses need not be aligned; tags of overlapped granules are
    cleared by writes. *)

(** {1 Capabilities} *)

val store_cap : t -> off:int -> Ufork_cheri.Capability.t -> unit
(** [off] must be 16-byte aligned. Storing an untagged capability clears
    the granule's tag (as a CSC of an untagged value does).
    Raises [Invalid_argument] on misalignment. *)

val load_cap : t -> off:int -> Ufork_cheri.Capability.t
(** [off] must be 16-byte aligned. If the granule's tag is clear, the
    result is an untagged capability (dereferencing it will fault), matching
    hardware behaviour of loading a non-capability value into a capability
    register. *)

val clear_tag_at : t -> off:int -> unit [@@ufork.test_seam]
(** Clear the tag of the (aligned) granule without touching its bytes —
    what capability revocation does. *)

val clear_tags : t -> off:int -> len:int -> unit
(** Clear the tag of every granule overlapping [[off, off+len)], partly
    covered end granules included, without touching the bytes. *)

val tag_at : t -> off:int -> bool [@@ufork.test_seam]
(** Tag of the granule containing (aligned) [off]. *)

val tagged_granules : t -> int list [@@ufork.test_seam]
(** Indices of granules holding valid capabilities, ascending. This is the
    16-byte-increment scan μFork's copy engine performs (§4.2). *)

val tagged_count : t -> int
val clear_all_tags : t -> unit [@@ufork.test_seam]

val iter_caps : t -> (int -> Ufork_cheri.Capability.t -> unit) -> unit
(** [iter_caps p f] applies [f granule cap] for each tagged granule, in
    ascending granule order. [f] must not change the page's tags. *)

val map_caps :
  t -> (Ufork_cheri.Capability.t -> Ufork_cheri.Capability.t) -> unit
(** Rewrite every tagged capability in place (relocation), in ascending
    granule order. *)
