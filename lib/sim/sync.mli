(** Blocking synchronization for engine threads.

    [Lock] models mutexes — notably Unikraft's big kernel lock, which
    serializes kernel code across cores (§4.5) — and [Cond] models waitqueues
    (pipe readers, [wait] for child exit). Both are FIFO and deterministic. *)

module Lock : sig
  type t

  val create : engine:Engine.t -> ?name:string -> unit -> t
  (** [engine] is the machine whose threads take the lock: acquire and
      release read the running thread from its identity fields
      ({!Engine.running_tid}) instead of performing an effect. [name]
      registers a stable resource name for the lock's id with the
      happens-before bus ({!Ufork_util.Hb.set_lock_name}), so race
      reports and trace exports name the resource, not a number; pass a
      string built once, not per machine. *)

  val acquire : t -> unit
  (** Blocks (suspending the calling engine thread) until available. *)

  val release : t -> unit
  (** Hands the lock to the longest-waiting thread, if any. Raises
      [Invalid_argument] if the lock is not held. *)

  val with_lock : t -> (unit -> 'a) -> 'a
  (** [acquire]; run; [release] (also on exception). *)

  val locked : t -> bool

  val id : t -> int
  (** Stable identity; names the lock in happens-before events. *)

  val name : t -> string option
end

(** {1 Contention counters}

    Every named lock counts acquisitions, blocked acquisitions, and
    which thread held it each time a waiter blocked. Plain counters: no
    cycles are charged and no engine state is touched, so scheduling and
    golden accounting are unchanged. Aggregated by resource name across
    every named lock created so far (several booted machines sum). The
    registry holds each lock's counters, not the lock, so it keeps no
    machine alive. *)

type contention = {
  lock : string;  (** the resource name passed to [create ~name] *)
  acquires : int;  (** outermost acquisitions (recursive re-entries excluded) *)
  waits : int;  (** acquisitions that found the lock held and suspended *)
  wait_holders : (int * int) list;
      (** holder tid at the moment a waiter blocked → how often, sorted *)
}

val lock_contention : unit -> contention list
(** One row per distinct lock name, sorted by name. *)

val lock_contention_prometheus : unit -> string
(** Prometheus text exposition: [ufork_lock_acquire_total],
    [ufork_lock_wait_total], [ufork_lock_wait_holder_total], each
    labelled by lock name (and holder tid for the last). *)

val reset_lock_contention : unit -> unit
(** Forget every lock registered so far (unit-test isolation). *)

(** Recursive lock, owner-tracked by engine tid. Kernel code re-enters
    (a fault inside a syscall services on the same thread), and a plain
    {!Lock} would self-deadlock the cooperative engine. Only the
    outermost acquire/release pair touches the underlying {!Lock} and
    the happens-before bus. *)
module Rlock : sig
  type t

  val create : engine:Engine.t -> ?name:string -> unit -> t
  (** As {!Lock.create}. *)

  val acquire : t -> unit
  val release : t -> unit
  val with_lock : t -> (unit -> 'a) -> 'a
  val id : t -> int
  val name : t -> string option

  val held_by_self : t -> bool
  (** True when the calling engine thread currently holds the lock. *)
end

module Cond : sig
  type t

  val create : engine:Engine.t -> unit -> t
  (** [engine] is the machine whose threads wait: its wakers are what
      the queue holds, and what {!signal} wakes. *)

  val wait : t -> unit
  (** Park the running thread until signalled. No lock is associated:
      callers re-check their predicate on wakeup (spurious-wakeup-safe
      style). *)

  val add_waiter : t -> Engine.waker -> unit
  (** Register a waker the caller also keeps (signal-interruptible
      waits): take it with {!Engine.waker}, register it, then
      {!Engine.park}. *)

  val signal : t -> unit
  (** Wake the longest-waiting thread (no-op when none; entries already
      woken out of band are skipped). *)

  val broadcast : t -> unit
  val waiters : t -> int
end
