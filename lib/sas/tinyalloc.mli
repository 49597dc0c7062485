(** Per-μprocess heap allocator (modelled on Unikraft's tinyalloc, §4.1).

    Placement logic (first-fit free list with coalescing, 16-byte aligned)
    runs in OCaml for tractability; the allocator's {e metadata} footprint
    is faithfully materialized in simulated memory by the kernel: each live
    block owns one 16-byte granule in the μprocess's metadata region, into
    which the kernel stores a capability to the block. Those are exactly
    the "pages containing memory-allocator metadata" that μFork proactively
    copies and relocates at fork (§3.5) — and because the granule holds a
    real capability, the relocation scan fixes it like any other pointer.

    [clone ~delta] rebases the mirror for a forked child, the bookkeeping
    twin of that proactive copy. *)

type t

type block = { addr : int; size : int; meta_index : int }
(** [meta_index] is the granule index of the block's metadata record within
    the metadata region. *)

val create : heap_base:int -> heap_size:int -> meta_capacity_granules:int -> t
(** Manages [heap_base, heap_base+heap_size). Raises [Invalid_argument] on
    non-positive sizes or unaligned base. *)

exception Out_of_heap

val alloc : t -> int -> block
(** 16-byte aligned first fit. @raise Out_of_heap when no span fits or the
    metadata region is exhausted. *)

val free : t -> int -> block
(** [free t addr] releases the block starting at [addr], returning its
    record (the kernel clears its metadata granule). Raises
    [Invalid_argument] for an address that is not a live block start. *)

val block_of_addr : t -> int -> block option [@@ufork.test_seam]
(** The live block containing (not merely starting at) the address. *)

val clone : t -> delta:int -> t
(** Identical allocator state shifted by [delta] bytes — the child's heap
    mirror after μFork relocation. *)

val used_bytes : t -> int
val live_blocks : t -> int [@@ufork.test_seam]
val heap_base : t -> int [@@ufork.test_seam]
val high_water_meta_granules : t -> int
(** Highest metadata granule ever used + 1; determines how many metadata
    pages the kernel must proactively copy at fork. *)
