(** Named event counters.

    Every mechanism event in the kernels (pages copied, capabilities
    relocated, traps taken, …) increments a meter; the benchmark harness
    reads them to report and to cross-check that latencies are explained by
    counted work rather than hidden constants. *)

type t

val create : unit -> t

val intern : t -> string -> int
(** Register [name] (idempotent) and return its dense id. Ids are
    assigned in first-touch order, are stable for the meter's lifetime
    (including across {!reset}), and index the flat count array the
    [_id] entry points below address. Hot emission paths intern their
    keys once up front and bump by id — no hashing, no allocation per
    event. *)

val name : t -> int -> string
(** The key a previously interned id registers under. *)

val incr_id : t -> int -> unit
val add_id : t -> int -> int -> unit

val incr : t -> string -> unit [@@ufork.test_seam]
val add : t -> string -> int -> unit [@@ufork.test_seam]
val get : t -> string -> int
(** 0 when never incremented. *)

val reset : t -> unit [@@ufork.test_seam]
(** Zero every counter without discarding the key registry: keys touched
    before the reset (including gauges set via {!set}) remain in
    {!to_list} with value 0, so back-to-back experiments report identical
    key sets. *)

val to_list : t -> (string * int) list
(** Sorted by name. *)

val pp : Format.formatter -> t -> unit

val set : t -> string -> int -> unit
(** Overwrite a counter (used for "last observed value" gauges). *)
