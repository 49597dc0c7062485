module Hb = Ufork_util.Hb

module Lock = struct
  type t = {
    id : int;
    name : string option;
    mutable held : bool;
    queue : Engine.waker Queue.t;
    mutable holder : int;  (** tid of the current holder while [held] *)
    mutable acquires : int;
    mutable waits : int;
    wait_holders : (int, int) Hashtbl.t;  (** holder tid at wait → count *)
  }

  (* Lock identity for the happens-before bus: release-to-acquire edges
     are drawn per lock, so each needs a stable id. Named locks (the
     sharded kernel resources) additionally register the name with the
     bus so race reports and trace exports can say which resource a
     lock protects. *)
  let next_id = ref 0

  (* Named locks also register here, newest first, so the contention
     surface ([Sync.lock_contention]) can enumerate them after a run.
     Plain counters: they charge no cycles and touch no engine state, so
     golden accounting and scheduling are unchanged. One mutex covers
     the id counter and the registry: locks are created at machine boot,
     and the bench harness boots machines from several domains at once
     ([Experiments.parmap]). Ids stay unique (their only contract);
     contention readouts aggregate by name and sort, so registration
     order never shows. *)
  let registry : t list ref = ref []
  let registry_mutex = Mutex.create ()

  let create ?name () =
    let id =
      Mutex.protect registry_mutex (fun () ->
          incr next_id;
          !next_id)
    in
    Option.iter (Hb.set_lock_name id) name;
    let t =
      {
        id;
        name;
        held = false;
        queue = Queue.create ();
        holder = min_int;
        acquires = 0;
        waits = 0;
        wait_holders = Hashtbl.create 7;
      }
    in
    if name <> None then
      Mutex.protect registry_mutex (fun () -> registry := t :: !registry);
    t

  let id t = t.id
  let name t = t.name

  let acquire t =
    t.acquires <- t.acquires + 1;
    (if not t.held then t.held <- true
     else begin
       t.waits <- t.waits + 1;
       let blocking_holder = t.holder in
       Hashtbl.replace t.wait_holders blocking_holder
         (1 + Option.value ~default:0
                (Hashtbl.find_opt t.wait_holders blocking_holder));
       if Hb.on () then
         Hb.emit
           (Hb.Contend { tid = Hb.tid (); lock = t.id; holder = blocking_holder });
       Engine.suspend (fun w -> Queue.push w t.queue)
     end);
    t.holder <- Hb.tid ();
    (* Emitted after the lock is really held (a contended acquire
       suspends first): the detector joins the releaser's clock here. *)
    if Hb.on () then Hb.emit (Hb.Acquire { tid = Hb.tid (); lock = t.id })

  let release t =
    if not t.held then invalid_arg "Lock.release: not held";
    if Hb.on () then Hb.emit (Hb.Release { tid = Hb.tid (); lock = t.id });
    match Queue.take_opt t.queue with
    | Some w ->
        (* Ownership transfers directly to the woken thread. *)
        if Hb.on () then
          Hb.emit
            (Hb.Handoff
               { from_ = Hb.tid (); to_ = Engine.waker_tid w; lock = t.id });
        Engine.wake w
    | None -> t.held <- false

  let with_lock t f =
    acquire t;
    match f () with
    | v ->
        release t;
        v
    | exception e ->
        release t;
        raise e

  let locked t = t.held
end

(* Per-lock contention readout, aggregated by resource name across every
   named lock created so far (a long-lived front end may boot several
   machines; same-named locks sum). Deterministic: sorted by name, and
   the per-holder table is folded to a sorted assoc list. *)

type contention = {
  lock : string;  (** the resource name passed to [create ~name] *)
  acquires : int;  (** outermost acquisitions (recursive re-entries excluded) *)
  waits : int;  (** acquisitions that found the lock held and suspended *)
  wait_holders : (int * int) list;
      (** holder tid at the moment a waiter blocked → how often, sorted *)
}

let lock_contention () =
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (l : Lock.t) ->
      match l.Lock.name with
      | None -> ()
      | Some n ->
          let acquires, waits, holders =
            Option.value ~default:(0, 0, []) (Hashtbl.find_opt by_name n)
          in
          let own =
            Hashtbl.fold (fun h c acc -> (h, c) :: acc) l.Lock.wait_holders []
          in
          Hashtbl.replace by_name n
            ( acquires + l.Lock.acquires,
              waits + l.Lock.waits,
              own @ holders ))
    !Lock.registry;
  Hashtbl.fold (fun n v acc -> (n, v) :: acc) by_name []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (n, (acquires, waits, holders)) ->
         let merged = Hashtbl.create 7 in
         List.iter
           (fun (h, c) ->
             Hashtbl.replace merged h
               (c + Option.value ~default:0 (Hashtbl.find_opt merged h)))
           holders;
         let wait_holders =
           Hashtbl.fold (fun h c acc -> (h, c) :: acc) merged []
           |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
         in
         { lock = n; acquires; waits; wait_holders })

let lock_contention_prometheus () =
  let b = Buffer.create 1024 in
  let rows = lock_contention () in
  Buffer.add_string b
    "# HELP ufork_lock_acquire_total Outermost lock acquisitions.\n\
     # TYPE ufork_lock_acquire_total counter\n";
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "ufork_lock_acquire_total{lock=%S} %d\n" c.lock
           c.acquires))
    rows;
  Buffer.add_string b
    "# HELP ufork_lock_wait_total Acquisitions that blocked on a holder.\n\
     # TYPE ufork_lock_wait_total counter\n";
  List.iter
    (fun c ->
      Buffer.add_string b
        (Printf.sprintf "ufork_lock_wait_total{lock=%S} %d\n" c.lock c.waits))
    rows;
  Buffer.add_string b
    "# HELP ufork_lock_wait_holder_total Waits attributed to the thread \
     holding the lock when the waiter blocked.\n\
     # TYPE ufork_lock_wait_holder_total counter\n";
  List.iter
    (fun c ->
      List.iter
        (fun (holder, n) ->
          Buffer.add_string b
            (Printf.sprintf
               "ufork_lock_wait_holder_total{lock=%S,holder=\"%d\"} %d\n"
               c.lock holder n))
        c.wait_holders)
    rows;
  Buffer.contents b

let reset_lock_contention () =
  Mutex.protect Lock.registry_mutex (fun () -> Lock.registry := [])

(* Recursive lock, owner-tracked by engine tid: kernel paths re-enter
   (a fault raised inside a syscall re-enters the kernel on the same
   thread), and a plain Lock would self-deadlock the cooperative engine.
   Depth counting keeps the underlying release balanced with the
   outermost acquire; only that outermost pair touches the Lock (and so
   the happens-before bus). *)
module Rlock = struct
  type t = { lock : Lock.t; mutable owner : int; mutable depth : int }

  let no_owner = min_int

  let create ?name () =
    { lock = Lock.create ?name (); owner = no_owner; depth = 0 }

  let acquire t =
    let tid = Hb.tid () in
    if t.depth > 0 && t.owner = tid then t.depth <- t.depth + 1
    else begin
      Lock.acquire t.lock;
      t.owner <- tid;
      t.depth <- 1
    end

  let release t =
    if t.depth <= 0 then invalid_arg "Rlock.release: not held";
    t.depth <- t.depth - 1;
    if t.depth = 0 then begin
      t.owner <- no_owner;
      Lock.release t.lock
    end

  let with_lock t f =
    acquire t;
    match f () with
    | v ->
        release t;
        v
    | exception e ->
        release t;
        raise e

  let id t = Lock.id t.lock
  let name t = Lock.name t.lock
  let held_by_self t = t.depth > 0 && t.owner = Hb.tid ()
end

module Cond = struct
  type t = { queue : Engine.waker Queue.t }

  let create () = { queue = Queue.create () }
  let wait t = Engine.suspend (fun w -> Queue.push w t.queue)
  let add_waiter t w = Queue.push w t.queue

  (* Entries woken out of band (e.g. signal delivery) are skipped so their
     stale wakers never consume a real wakeup. *)
  let rec signal t =
    if not (Queue.is_empty t.queue) then
      let w = Queue.take t.queue in
      if Engine.waker_pending w then Engine.wake w else signal t

  let broadcast t =
    let n = Queue.length t.queue in
    for _ = 1 to n do
      signal t
    done

  let waiters t = Queue.length t.queue
end
