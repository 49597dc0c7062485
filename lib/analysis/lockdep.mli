(** Runtime lock-order checking ("lockdep") — invariant R2.

    Replays {!Ufork_util.Hb} [Acquire]/[Release] events into a
    may-hold-while-acquiring graph keyed by lock name: an edge [a → b]
    means some thread acquired [b] while holding [a]. The lock regime is
    deadlock-free exactly while this graph stays acyclic and nested
    page-table shards are taken in ascending index order; any
    counterexample is reported as R2 (Critical).

    Page-table shards are tracked per index ([lock.pt_shard.07]), not
    collapsed to one class like the static mirror (lint rule D10), so a
    descending pair is caught on the very acquisition that inverts the
    order — no annotation escape hatch exists at runtime.

    Like the race detector, the checker only observes: it charges no
    cycles and perturbs neither scheduling nor golden accounting. *)

type t

val create : unit -> t

val attach : t -> unit [@@ufork.test_seam]
(** Claim the {!Ufork_util.Hb} bus (single-subscriber: this replaces any
    other listener — use {!handle} from a dispatching closure to run
    beside the race detector). *)

val handle : t -> Ufork_util.Hb.event -> unit
(** Feed one bus event directly. *)

val detach : unit -> unit [@@ufork.test_seam]
(** Release the bus (idempotent). *)

val violations : t -> Invariant.violation list
(** Every R2 violation, oldest first; at most one per ordered pair of
    lock names. *)

val events_seen : t -> int [@@ufork.test_seam]
(** Bus events processed — a sanity probe that instrumentation fired. *)

val edges : t -> (string * string) list [@@ufork.test_seam]
(** The acquisition graph observed so far, as [(held, acquired)] name
    pairs, sorted — the runtime counterpart of [lint --lock-graph]. *)
