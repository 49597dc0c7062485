(** Sparse vector clocks over engine thread ids.

    The race detector's ordering arithmetic: a clock maps each thread id
    to the number of ordering-relevant events it has performed. Absent
    components read as 0, so {!empty} is the bottom element of the
    [leq] partial order and clocks never need the thread population in
    advance. *)

type t

val empty : t

val get : t -> int -> int
(** Component for a thread id; 0 when absent. *)

val incr : t -> int -> t
(** Advance one component by one. *)

val join : t -> t -> t
(** Pointwise max — the least upper bound. *)

val leq : t -> t -> bool [@@ufork.test_seam]
(** Pointwise [<=]: [leq a b] means everything [a] knows, [b] knows. *)

val equal : t -> t -> bool [@@ufork.test_seam]

val lt : t -> t -> bool [@@ufork.test_seam]
(** Strict: [leq] and not [equal] — a genuine happened-before. *)
