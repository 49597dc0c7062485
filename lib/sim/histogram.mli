(** Log-bucketed latency histograms for span durations.

    Values are non-negative cycle counts. Bucket 0 holds exactly the
    value 0; bucket [i >= 1] holds the half-open power-of-two range
    [2^(i-1) .. 2^i - 1]. The bucket layout is fixed (65 buckets cover
    the whole non-negative [int64] range), so {!merge} is exact:
    bucket counts, [n], [sum], [min] and [max] all combine losslessly,
    making merge associative and commutative.

    Quantiles are bucket-resolved: {!quantile} returns the upper bound
    of the bucket holding the rank-[ceil(p*n)] value, clamped to the
    exact observed maximum — always inside the same bucket as the true
    (sort-based) quantile. *)

type t

val create : unit -> t

val record : t -> int64 -> unit [@@ufork.test_seam]
(** Add one value. Raises [Invalid_argument] on negative values. *)

val record_int : t -> int -> unit
(** {!record} for a native-int value: identical buckets and totals, but
    the bucket search stays unboxed — the per-span-close fast path. *)

val count : t -> int
val is_empty : t -> bool

val sum : t -> int64
val min_value : t -> int64 [@@ufork.test_seam]
(** Exact observed minimum; [0L] when empty. *)

val max_value : t -> int64
(** Exact observed maximum; [0L] when empty. *)

val quantile : t -> float -> int64
(** [quantile t p] for [0. <= p <= 1.]. Rank is [max 1 (ceil (p * n))]
    (so [quantile t 1.] is the exact maximum and [quantile t 0.] the
    exact minimum); the result is the upper bound of the rank's bucket
    clamped to the observed max, hence always within the same bucket as
    the sort-based quantile of the recorded multiset. [0L] when empty.
    Raises [Invalid_argument] if [p] is outside [0, 1]. *)

val merge : t -> t -> t
(** Lossless combination of two histograms (fresh result; arguments are
    not mutated). Associative and commutative. *)

val bucket_bounds : int64 -> int64 * int64 [@@ufork.test_seam]
(** [(lo, hi)] inclusive bounds of the bucket that would hold the given
    value. Raises [Invalid_argument] on negative values. *)

val to_buckets : t -> (int64 * int64 * int) list
(** Non-empty buckets, ascending: [(lo, hi, count)]. *)
