(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic element of the simulation (workload generation, request
    arrival jitter, key selection) draws from an explicit [Prng.t] so that
    experiments are reproducible bit-for-bit across runs and platforms. *)

type t

val create : seed:int64 -> t
(** Fresh generator. Equal seeds yield equal streams. *)

val copy : t -> t [@@ufork.test_seam]
(** Independent copy continuing from the current state. *)

val next64 : t -> int64 [@@ufork.test_seam]
(** Next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound). Raises [Invalid_argument] if
    [bound <= 0]. *)

val int_in : t -> lo:int -> hi:int -> int [@@ufork.test_seam]
(** Uniform in [lo, hi] inclusive. Raises [Invalid_argument] if [hi < lo]. *)

val bool : t -> bool [@@ufork.test_seam]
val bytes : t -> int -> bytes
(** [bytes t n] is [n] random bytes. *)
