module Hb = Ufork_util.Hb

(* Happens-before race detection for the simulated multicore.

   The concurrency layer publishes ordering events and shared-state
   writes on the {!Ufork_util.Hb} bus; this module replays them through
   vector clocks (FastTrack-style last-write epochs) and flags any pair
   of conflicting writes with no ordering edge between them.

   Edges:
   - [Spawn]: everything the parent did before [Engine.spawn] is visible
     to the child.
   - [Wake]: the waker's history is visible to the woken thread (a
     wakeup is a real synchronization in any implementation — the woken
     thread cannot resume before the signal).
   - [Release]/[Acquire] on a {!Ufork_sim.Sync.Lock}: the classic lock
     hand-off edge; this is how the big kernel lock (§4.5) orders
     syscalls on different cores.

   Write classes:
   - [Frame] (refcount traffic in {!Ufork_mem.Phys}): modeled as atomic
     read-modify-writes on an internally synchronized counter — the
     [kref]/[atomic_t] discipline every real kernel uses for page
     refcounts. Atomic RMWs cannot data-race, and (as seq-cst RMWs
     reading from each other) they synchronize: each access joins and
     then replaces the location's clock.
   - [Pte] and [Gauge]: plain writes. Two writes to the same location
     from different threads with neither ordered before the other are a
     data race (R1). *)

type access = {
  tid : int;
  epoch : int;
  site : string;
  held : int list;  (* lock ids held at the write, innermost first *)
}

type race = {
  loc : Hb.loc;
  first : access;  (* the earlier (unordered) write *)
  second : access;  (* the write that exposed the race *)
}

type t = {
  threads : (int, Vclock.t) Hashtbl.t;
  locks : (int, Vclock.t) Hashtbl.t;
  held : (int, int list) Hashtbl.t; (* tid -> lock ids held, innermost first *)
  atomics : (Hb.loc, Vclock.t) Hashtbl.t;
  writes : (Hb.loc, access) Hashtbl.t;
  reported : (Hb.loc, unit) Hashtbl.t; (* one report per location *)
  mutable races : race list; (* newest first *)
  mutable events : int;
}

let create () =
  {
    threads = Hashtbl.create 64;
    locks = Hashtbl.create 16;
    held = Hashtbl.create 64;
    atomics = Hashtbl.create 256;
    writes = Hashtbl.create 256;
    reported = Hashtbl.create 8;
    races = [];
    events = 0;
  }

let clock_of t tid =
  Option.value (Hashtbl.find_opt t.threads tid) ~default:Vclock.empty

let set_clock t tid c = Hashtbl.replace t.threads tid c

(* The thread performed an ordering-relevant event whose effects others
   may later join: advance its own component so the old epoch is
   distinguishable from what follows. *)
let tick t tid = set_clock t tid (Vclock.incr (clock_of t tid) tid)

let handle t (ev : Hb.event) =
  t.events <- t.events + 1;
  match ev with
  | Hb.Spawn { parent; child } ->
      set_clock t child
        (Vclock.join (clock_of t child) (clock_of t parent));
      tick t parent
  | Hb.Wake { by; target } ->
      set_clock t target (Vclock.join (clock_of t target) (clock_of t by));
      tick t by
  | Hb.Acquire { tid; lock } ->
      Hashtbl.replace t.held tid
        (lock :: Option.value (Hashtbl.find_opt t.held tid) ~default:[]);
      (match Hashtbl.find_opt t.locks lock with
      | Some l -> set_clock t tid (Vclock.join (clock_of t tid) l)
      | None -> ())
  | Hb.Release { tid; lock } ->
      (* Drop the innermost occurrence: recursive wrappers emit one
         Acquire/Release pair per outermost hold, so this is a stack. *)
      (let rec drop = function
         | [] -> []
         | l :: rest -> if l = lock then rest else l :: drop rest
       in
       Hashtbl.replace t.held tid
         (drop (Option.value (Hashtbl.find_opt t.held tid) ~default:[])));
      Hashtbl.replace t.locks lock (clock_of t tid);
      tick t tid
  | Hb.Write { tid; loc = Hb.Frame _ as loc; site = _ } ->
      (* Atomic RMW: join the location's clock, publish back, tick. *)
      let joined =
        Vclock.join (clock_of t tid)
          (Option.value (Hashtbl.find_opt t.atomics loc)
             ~default:Vclock.empty)
      in
      set_clock t tid joined;
      Hashtbl.replace t.atomics loc joined;
      tick t tid
  | Hb.Write { tid; loc; site } ->
      let c = clock_of t tid in
      let held = Option.value (Hashtbl.find_opt t.held tid) ~default:[] in
      (match Hashtbl.find_opt t.writes loc with
      | Some prev
        when prev.tid <> tid
             && prev.epoch > Vclock.get c prev.tid
             && not (Hashtbl.mem t.reported loc) ->
          Hashtbl.replace t.reported loc ();
          t.races <-
            {
              loc;
              first = prev;
              second = { tid; epoch = Vclock.get c tid; site; held };
            }
            :: t.races
      | Some _ | None -> ());
      (* Tick before recording so the stored epoch is strictly positive:
         a thread that has synchronized with nobody must still be
         distinguishable from "never wrote". *)
      tick t tid;
      Hashtbl.replace t.writes loc
        { tid; epoch = Vclock.get (clock_of t tid) tid; site; held }
  (* Causal-analysis events: no ordering semantics beyond what the
     Spawn/Wake/Acquire/Release edges above already encode. *)
  | Hb.Block _ | Hb.Contend _ | Hb.Handoff _ | Hb.Steal _ | Hb.Ipi _
  | Hb.Span_open _ | Hb.Span_close _ | Hb.Cap_store _ | Hb.Cap_load _ ->
      ()

let races t = List.rev t.races

let attach t = Hb.subscribe (handle t)
let detach () = Hb.unsubscribe ()

(* Race reports name the locks each side held (via the {!Hb} lock-name
   registry, e.g. [lock.stats]): "both held X" vs "neither held
   anything" is the difference between a lock-granularity bug and a
   missing lock, and the sharded kernel's named ids make the resource
   readable. *)
let pp_held ppf = function
  | [] -> Format.pp_print_string ppf "no locks"
  | held ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
        Hb.pp_lock ppf held

let violation_of_race r =
  {
    Invariant.invariant = Invariant.Data_race;
    subject = Format.asprintf "%a" Hb.pp_loc r.loc;
    detail =
      Format.asprintf
        "unordered conflicting writes: %s (thread %d, holding %a) and %s \
         (thread %d, holding %a) have no happens-before edge (no lock \
         hand-off, spawn, or wakeup between them)"
        r.first.site r.first.tid pp_held r.first.held r.second.site
        r.second.tid pp_held r.second.held;
  }

let violations t = List.map violation_of_race (races t)
