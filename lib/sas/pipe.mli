(** Kernel pipes: bounded byte streams.

    Used by the Unixbench Context1 microbenchmark (Fig. 9) and available to
    all applications. The primitives are non-blocking; the syscall layer
    implements blocking by waiting on {!readable}/{!writable} — it must
    release the big kernel lock around the wait, which is why the wait loop
    cannot live here. *)

type t

val create : ?capacity:int -> unit -> t
(** Default capacity 64 KiB, as on most Unixes. *)

val capacity : t -> int
val available : t -> int
(** Bytes currently buffered. *)

exception Broken_pipe

type write_result = Wrote of int | Would_block
type read_result = Data of bytes | Eof | Empty

val try_write : t -> ?off:int -> bytes -> write_result
(** [try_write t ~off b] appends as much of [b] from offset [off]
    (default 0) as the free space holds: a caller resuming a partial
    write passes the offset instead of a copy. [Would_block] when full.
    @raise Broken_pipe if the read end is closed.
    @raise Invalid_argument unless [0 <= off <= length b]. *)

val try_read : t -> int -> read_result
(** Take up to [n] buffered bytes, copied once out of the ring. [Empty]
    means nothing buffered but the write end is still open; [Eof] means
    nothing buffered and no writers remain.
    @raise Invalid_argument if [n < 0]. *)

val readable : t -> Ufork_sim.Sync.Cond.t
(** Signalled when data arrives or the write end closes. *)

val writable : t -> Ufork_sim.Sync.Cond.t
(** Signalled when space frees up or the read end closes. *)

val close_read : t -> unit
val close_write : t -> unit
val read_open : t -> bool
val write_open : t -> bool
