(** A Redis-like in-memory key-value store (evaluation workload, §5.1).

    The entire store lives in {e simulated tagged memory}, laid out the way
    Redis lays out its dict, so fork-strategy behaviour emerges from where
    capabilities really are:

    - a header block (count, bucket count, capability to the bucket
      array), published in GOT slot {!got_slot};
    - a bucket array: one capability granule per bucket, pointing at the
      first entry of the chain;
    - entry blocks: next-entry capability, value-object capability, key
      hash and inline key bytes;
    - value objects ("robj"): an 8-byte length, a capability to the value
      bytes, then the bytes inline in the same allocation.

    A forked child serializing the store therefore {e loads a capability}
    from each entry and from each value header — under CoPA exactly those
    pages get copied (≈ one page per value + the dict pages, Fig. 5's
    6 MB), while the bulk value bytes are plain data reads and stay
    shared. *)

type t

val got_slot : int
(** GOT slot where the store header capability is published (0). *)

val create : Ufork_sas.Api.t -> ?buckets:int -> unit -> t
(** Allocate the dict in the calling process's heap and publish it.
    Default 1024 buckets. *)

val open_ : Ufork_sas.Api.t -> t
(** Attach to the store published in the GOT — this is how a forked child
    finds the (relocated) database. *)

val set : t -> key:string -> value:bytes -> unit
(** Insert or replace. Keys are at most 40 bytes. The value is copied
    into the store, so the caller may reuse its buffer. *)

val get : t -> key:string -> bytes option
val delete : t -> key:string -> bool
val count : t -> int

val bucket_count : t -> int
(** Current size of the bucket array; grows 4x (Redis-style rehash)
    whenever the load factor exceeds 1. *)

val iter : t -> (key:string -> value_len:int -> read_value:(unit -> bytes) -> unit) -> unit
(** Walk every entry (bucket order). [read_value] pulls the value bytes
    lazily so callers control when the (possibly page-copying) reads
    happen. *)

val mem_used_bytes : t -> int
(** Heap bytes consumed by the store (allocator view). *)
