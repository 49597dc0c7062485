(** Deterministic keyspaces and values for the Redis experiments.

    The paper populates the database "with different amounts of 100 KB
    entries" (§5.1); [populate] reproduces that, with values filled by a
    cheap deterministic pattern (content does not affect timing, only
    bytes moved — and the dump checker verifies it round-trips). *)

val key : int -> string
(** ["key:%08d"]. *)

val value : seed:int64 -> index:int -> len:int -> bytes
(** Deterministic pseudo-random-looking payload: a 64-byte block derived
    from (seed, index) tiled to [len]. *)

val populate :
  Ufork_apps.Kvstore.t -> entries:int -> value_len:int -> seed:int64 -> unit

val dump_matches :
  entries:int -> value_len:int -> seed:int64 -> string -> bool
(** Whether a dump ({!Ufork_apps.Rdb.fold}) of the store [populate] built
    with these parameters is intact: it parses, and holds each [key i]
    for [i < entries] exactly once with its [value]. Checked entry by
    entry in one pass, against values regenerated one at a time. *)

val db_sizes_of_paper : (string * int * int) list
(** Fig. 3–5 sweep: (label, entries, value_len) from 100 KB to 100 MB of
    100 KB entries. *)

val db_sizes_extended : (string * int * int) list
(** {!db_sizes_of_paper} plus a 1 GB point. Affordable since fork-time
    page-range work charges one batched trace record per region instead
    of ~25k singletons per 100 MB. *)
