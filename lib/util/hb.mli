(** Happens-before instrumentation bus.

    Publishers (the simulation engine, locks, the frame pool, page
    tables, the gauge surface) report ordering edges and shared-state
    mutations; a dynamic race detector subscribes for the duration of a
    checked run. With no subscriber the publishers pay a single bool
    read and allocate nothing, so golden accounting is untouched.

    The module sits in lib/util so both lib/sim and lib/mem can publish
    without a dependency cycle. *)

type loc =
  | Frame of int  (** a physical frame's refcount/pool state, by frame id *)
  | Pte of { table : int; vpn : int }  (** one page-table entry *)
  | Gauge of string  (** a derived-meter gauge key *)
  | Pool  (** the shared global free-frame pool behind the per-core freelists *)

type event =
  | Spawn of { parent : int; child : int }
  | Wake of { by : int; target : int }
  | Acquire of { tid : int; lock : int }
  | Release of { tid : int; lock : int }
  | Write of { tid : int; loc : loc; site : string }
  | Block of { tid : int }
      (** the thread suspended (lock wait, condition wait, sleep) *)
  | Contend of { tid : int; lock : int; holder : int }
      (** [tid] found [lock] held by [holder]; a [Block] follows *)
  | Handoff of { from_ : int; to_ : int; lock : int }
      (** direct ownership transfer: the next [Wake { target = to_ }]
          delivers [lock] *)
  | Steal of { tid : int; core : int }
      (** work stealing re-homed [tid] onto [core] *)
  | Ipi of { by : int; remotes : int }
      (** TLB-shootdown batch interrupting [remotes] remote cores *)
  | Span_open of { tid : int; name : string }
      (** trace span boundary (one path segment, innermost name only) *)
  | Span_close of { tid : int; name : string }
  | Cap_store of { tid : int; addr : int; prov : int }
      (** a tagged capability with provenance stamp [prov] landed at
          [addr]; consumed by the capflow R4 taint invariant *)
  | Cap_load of { tid : int; addr : int; prov : int }
      (** a tagged capability was loaded back out of memory *)

val set_tid_provider : (unit -> int) -> unit
(** Installed once by the engine: the current simulated thread id, or a
    negative value outside any simulated thread. *)

val tid : unit -> int
(** The current simulated thread id via the installed provider. Asking
    costs an effect round trip (and a caught [Effect.Unhandled] outside
    any engine thread), so it serves bus publishers under {!on}; a
    machine's locks and frame pool read their engine's identity fields
    instead. *)

val set_lock_name : int -> string -> unit
(** Register a stable resource name for a lock id (e.g.
    ["lock.frame_pool"]). Named locks appear by name in race reports.
    Non-negative ids are one array store; [""] leaves an id unnamed.
    Not synchronised: callers on several domains serialise themselves
    ([Sync] registers under its own mutex). *)

val lock_name : int -> string option

val pp_lock : Format.formatter -> int -> unit
(** ["<name> (lock <id>)"] when the id is named, ["lock <id>"] otherwise. *)

val on : unit -> bool
(** True while a subscriber is armed. Publishers guard event
    construction behind this so the off state allocates nothing. *)

val subscribe : (event -> unit) -> unit
(** Arm the bus. One subscriber at a time; a second [subscribe]
    replaces the first. *)

val unsubscribe : unit -> unit

val emit : event -> unit
(** Deliver to the subscriber, if armed. Call under [if on () then ...]
    when building the event allocates. *)

val pp_loc : Format.formatter -> loc -> unit
