(** Dynamic happens-before race detection for the simulated multicore.

    Subscribes to the {!Ufork_util.Hb} instrumentation bus and replays
    its events through vector clocks: [Spawn], [Wake] and lock
    [Release]→[Acquire] hand-offs draw happens-before edges; [Write]
    events to page-table entries and trace gauges are checked against
    the location's last write (FastTrack-style epochs). Two conflicting
    writes with no ordering edge are a data race — invariant R1.

    Frame-refcount writes are exempt by model: they stand for atomic
    read-modify-writes on internally synchronized counters (the
    [kref]/[atomic_t] discipline), which cannot data-race and which
    synchronize with each other.

    One detector is active at a time ({!attach} claims the bus); the
    disarmed bus costs a single branch per instrumentation point and
    perturbs neither scheduling nor golden accounting. *)

type t

type access = {
  tid : int;
  epoch : int;
  site : string;
  held : int list;
      (** lock ids held at the write, innermost first; named via the
          {!Ufork_util.Hb} lock-name registry in reports *)
}

type race = {
  loc : Ufork_util.Hb.loc;
  first : access;  (** the earlier (unordered) write *)
  second : access;  (** the write that exposed the race *)
}

val create : unit -> t

val attach : t -> unit [@@ufork.test_seam]
(** Claim the {!Ufork_util.Hb} bus: from here every instrumentation
    event feeds this detector. *)

val handle : t -> Ufork_util.Hb.event -> unit
(** Feed one bus event directly. The bus carries a single subscriber, so
    a front end that arms this detector {e and} the lock-order checker
    ({!Lockdep}) installs one closure that dispatches to both [handle]s
    instead of calling {!attach}. *)

val detach : unit -> unit [@@ufork.test_seam]
(** Release the bus (idempotent). *)

val races : t -> race list [@@ufork.test_seam]
(** Every detected race, oldest first; at most one per location. *)

val violations : t -> Invariant.violation list
(** {!races} rendered as R1 {!Invariant.violation}s for
    {!Checker}-style reporting. *)
