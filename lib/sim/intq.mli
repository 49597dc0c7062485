(** A FIFO of native ints in a growable ring.

    The engine's ready queues (thread ids) and the wait queues of
    {!Sync} (wakers) are queues of immediates: a ring of ints pushes and
    pops with plain array stores — no cell allocated per push and no
    write barrier — where a [Stdlib.Queue] conses one cell per element. *)

type t

val create : unit -> t
(** Empty; the ring is allocated on the first push and doubles when
    full. *)

val length : t -> int
val is_empty : t -> bool
val push : t -> int -> unit

val peek : t -> int
(** The oldest element. Raises [Invalid_argument] when empty. *)

val pop : t -> int
(** Remove and return the oldest element. Raises [Invalid_argument] when
    empty. *)
