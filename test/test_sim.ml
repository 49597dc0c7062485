(* Tests for the discrete-event engine, synchronization and meters. *)

module Engine = Ufork_sim.Engine
module Sync = Ufork_sim.Sync
module Meter = Ufork_sim.Meter
module Costs = Ufork_sim.Costs
module Event = Ufork_sim.Event
module Trace = Ufork_sim.Trace

(* --- Engine basics --- *)

let test_single_thread_time () =
  let e = Engine.create ~cores:1 () in
  let finish = ref (-1L) in
  let _ =
    Engine.spawn e (fun () ->
        Engine.advance e 100;
        Engine.advance e 50;
        finish := Engine.current_time ())
  in
  Engine.run e;
  Alcotest.(check int64) "time accumulates" 150L !finish;
  Alcotest.(check int64) "engine time" 150L (Engine.now e);
  Alcotest.(check int) "no live" 0 (Engine.live_threads e)

let test_two_cores_parallel () =
  let e = Engine.create ~cores:2 () in
  let t1 = ref 0L and t2 = ref 0L in
  let _ = Engine.spawn e (fun () -> Engine.advance e 100; t1 := Engine.current_time ()) in
  let _ = Engine.spawn e (fun () -> Engine.advance e 100; t2 := Engine.current_time ()) in
  Engine.run e;
  Alcotest.(check int64) "parallel t1" 100L !t1;
  Alcotest.(check int64) "parallel t2" 100L !t2;
  Alcotest.(check int64) "wall = 100" 100L (Engine.now e)

let test_one_core_serializes () =
  let e = Engine.create ~cores:1 () in
  let t2 = ref 0L in
  let _ = Engine.spawn e (fun () -> Engine.advance e 100) in
  let _ = Engine.spawn e (fun () -> Engine.advance e 100; t2 := Engine.current_time ()) in
  Engine.run e;
  Alcotest.(check int64) "second waits for core" 200L !t2

let test_affinity () =
  let e = Engine.create ~cores:2 () in
  let t2 = ref 0L and core2 = ref (-1) in
  let _ = Engine.spawn ~affinity:1 e (fun () -> Engine.advance e 100) in
  let _ =
    Engine.spawn ~affinity:1 e (fun () ->
        Engine.advance e 10;
        core2 := Engine.current_core ();
        t2 := Engine.current_time ())
  in
  Engine.run e;
  Alcotest.(check int64) "pinned threads serialize" 110L !t2;
  Alcotest.(check int) "ran on core 1" 1 !core2

let test_yield_migration () =
  (* A yielding thread can resume on a different core and its later
     advances must charge the new core (regression test for the stale-core
     handler bug). *)
  let e = Engine.create ~cores:2 () in
  let log = ref [] in
  let _ =
    Engine.spawn e (fun () ->
        Engine.advance e 10;
        Engine.yield ();
        Engine.advance e 10;
        log := ("a", Engine.current_time ()) :: !log)
  in
  let _ =
    Engine.spawn e (fun () ->
        Engine.advance e 100;
        log := ("b", Engine.current_time ()) :: !log)
  in
  Engine.run e;
  Alcotest.(check int64) "a done at 20" 20L (List.assoc "a" !log);
  Alcotest.(check int64) "b done at 100" 100L (List.assoc "b" !log)

let test_sleep () =
  let e = Engine.create ~cores:1 () in
  let woke = ref 0L and other = ref 0L in
  let _ =
    Engine.spawn e (fun () ->
        Engine.sleep e 1000L;
        woke := Engine.current_time ())
  in
  let _ =
    Engine.spawn e (fun () ->
        Engine.advance e 200;
        other := Engine.current_time ())
  in
  Engine.run e;
  Alcotest.(check int64) "sleeper wakes at 1000" 1000L !woke;
  Alcotest.(check int64) "core free during sleep" 200L !other

let test_spawn_from_thread () =
  let e = Engine.create ~cores:2 () in
  let child_done = ref 0L in
  let _ =
    Engine.spawn e (fun () ->
        Engine.advance e 10;
        ignore
          (Engine.spawn e (fun () ->
               Engine.advance e 5;
               child_done := Engine.current_time ())))
  in
  Engine.run e;
  Alcotest.(check int64) "nested spawn runs" 15L !child_done

let test_run_until () =
  let e = Engine.create ~cores:1 () in
  let steps = ref 0 in
  let _ =
    Engine.spawn e (fun () ->
        for _ = 1 to 100 do
          Engine.advance e 10;
          incr steps
        done)
  in
  Engine.run ~until:55L e;
  Alcotest.(check int64) "clock clamped" 55L (Engine.now e);
  Alcotest.(check bool) "stopped early" true (!steps < 100);
  (* A deadline already behind the clock leaves the clock where it is. *)
  let e = Engine.create ~cores:1 () in
  let _ = Engine.spawn e (fun () -> Engine.advance e 100) in
  Engine.run e;
  let resumed = ref (-1L) in
  let _ =
    Engine.spawn e (fun () ->
        Engine.advance e 50;
        resumed := Engine.current_time ())
  in
  Engine.run ~until:20L e;
  Alcotest.(check int64) "past deadline keeps the clock" 100L (Engine.now e);
  Engine.run e;
  Alcotest.(check int64) "advance ends at 150" 150L !resumed;
  Alcotest.(check int64) "clock at 150" 150L (Engine.now e)

let test_blocked_thread_reported () =
  let e = Engine.create ~cores:1 () in
  let c = Sync.Cond.create ~engine:e () in
  let _ = Engine.spawn e (fun () -> Sync.Cond.wait c) in
  Engine.run e;
  Alcotest.(check int) "blocked" 1 (Engine.blocked_threads e);
  Alcotest.(check int) "still live" 1 (Engine.live_threads e)

let test_determinism () =
  let trace () =
    let e = Engine.create ~cores:2 () in
    let log = ref [] in
    for i = 1 to 10 do
      ignore
        (Engine.spawn e (fun () ->
             Engine.advance e (i * 7);
             Engine.yield ();
             Engine.advance e (i * 3);
             log := (i, Engine.current_time ()) :: !log))
    done;
    Engine.run e;
    !log
  in
  Alcotest.(check bool) "same schedule twice" true (trace () = trace ())

let test_zero_advance () =
  let e = Engine.create ~cores:1 () in
  let ran = ref false in
  let _ =
    Engine.spawn e (fun () ->
        Engine.advance e 0;
        ran := true)
  in
  Engine.run e;
  Alcotest.(check bool) "zero advance completes" true !ran;
  Alcotest.(check int64) "no time passed" 0L (Engine.now e)

let test_negative_advance_rejected () =
  let e = Engine.create ~cores:1 () in
  let _ =
    Engine.spawn e (fun () ->
        match Engine.advance e (-1) with
        | () -> Alcotest.fail "negative advance accepted"
        | exception Invalid_argument _ -> ())
  in
  Engine.run e

let test_spawn_storm () =
  (* Many short threads across few cores: everyone runs, time is the
     serialized sum over the bottleneck core, and nothing deadlocks. *)
  let e = Engine.create ~cores:3 () in
  let completed = ref 0 in
  for _ = 1 to 500 do
    ignore
      (Engine.spawn e (fun () ->
           Engine.advance e 30;
           incr completed))
  done;
  Engine.run e;
  Alcotest.(check int) "all ran" 500 !completed;
  Alcotest.(check int64) "makespan = ceil(500/3)*30" (Int64.of_int (167 * 30))
    (Engine.now e)

let test_same_time_fifo () =
  (* Threads readied at the same instant run in FIFO order on one core. *)
  let e = Engine.create ~cores:1 () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore (Engine.spawn e (fun () -> order := i :: !order))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_ready_fifo_across_queues () =
  (* Simultaneously-ready threads start in spawn order even though their
     home queues alternate across cores: dispatch follows the global
     ready stamp, not core index. *)
  let e = Engine.create ~cores:2 () in
  let order = ref [] in
  for i = 1 to 4 do
    ignore
      (Engine.spawn e (fun () ->
           order := i :: !order;
           Engine.advance e 10))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "global fifo" [ 1; 2; 3; 4 ] (List.rev !order)

let test_steal_rehomes () =
  (* t1 (home core 1) occupies its core; when core 0 frees up, t3 (also
     homed on core 1) is stolen onto it rather than waiting. *)
  let e = Engine.create ~cores:2 () in
  let t3_core = ref (-1) and t3_time = ref (-1L) in
  let _ = Engine.spawn e (fun () -> Engine.advance e 100) in
  let _ = Engine.spawn e (fun () -> Engine.advance e 10) in
  let _ =
    Engine.spawn e (fun () ->
        t3_core := Engine.current_core ();
        t3_time := Engine.current_time ();
        Engine.advance e 10)
  in
  Engine.run e;
  Alcotest.(check int) "stolen onto core 0" 0 !t3_core;
  Alcotest.(check int64) "ran when core 0 freed" 10L !t3_time;
  Alcotest.(check int) "one steal counted" 1 (Engine.steals e)

let test_pinned_blocked_does_not_shadow () =
  (* A pinned entry waiting for its busy core must not block a younger
     unpinned entry behind it in the same queue: the unpinned one is
     stolen past it. *)
  let e = Engine.create ~cores:2 () in
  let b_time = ref (-1L) and c_time = ref (-1L) and c_core = ref (-1) in
  let _ = Engine.spawn ~affinity:1 e (fun () -> Engine.advance e 100) in
  let _ =
    Engine.spawn ~affinity:1 e (fun () -> b_time := Engine.current_time ())
  in
  let _ =
    Engine.spawn e (fun () ->
        c_time := Engine.current_time ();
        c_core := Engine.current_core ())
  in
  Engine.run e;
  Alcotest.(check int64) "pinned waits for its core" 100L !b_time;
  Alcotest.(check int64) "unpinned runs immediately" 0L !c_time;
  Alcotest.(check int) "on the idle core" 0 !c_core

let test_many_cores_parallel () =
  (* The SMP sweep's upper end: 128 cores run 128 threads fully in
     parallel. *)
  let e = Engine.create ~cores:128 () in
  let completed = ref 0 in
  for _ = 1 to 128 do
    ignore
      (Engine.spawn e (fun () ->
           Engine.advance e 100;
           incr completed))
  done;
  Engine.run e;
  Alcotest.(check int) "all ran" 128 !completed;
  Alcotest.(check int64) "fully parallel" 100L (Engine.now e);
  Alcotest.(check int) "no steals needed" 0 (Engine.steals e)

let test_waker_pending () =
  let e = Engine.create ~cores:1 () in
  let stash = ref Engine.no_waker in
  let _ =
    Engine.spawn e (fun () ->
        stash := Engine.waker e;
        Engine.park e)
  in
  Engine.run e;
  let w = !stash in
  Alcotest.(check bool) "pending before" true (Engine.waker_pending e w);
  Engine.wake e w;
  Engine.run e;
  Alcotest.(check bool) "used after" false (Engine.waker_pending e w);
  Alcotest.check_raises "double wake"
    (Invalid_argument "Engine.wake: waker already used") (fun () ->
      Engine.wake e w)

(* --- Locks --- *)

let test_lock_mutual_exclusion () =
  let e = Engine.create ~cores:4 () in
  let l = Sync.Lock.create ~engine:e () in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 8 do
    ignore
      (Engine.spawn e (fun () ->
           Sync.Lock.with_lock l (fun () ->
               incr inside;
               max_inside := max !max_inside !inside;
               Engine.advance e 10;
               decr inside)))
  done;
  Engine.run e;
  Alcotest.(check int) "never concurrent" 1 !max_inside;
  Alcotest.(check int64) "fully serialized" 80L (Engine.now e)

let test_lock_fifo () =
  let e = Engine.create ~cores:1 () in
  let l = Sync.Lock.create ~engine:e () in
  let order = ref [] in
  for i = 1 to 4 do
    ignore
      (Engine.spawn e (fun () ->
           Sync.Lock.with_lock l (fun () ->
               order := i :: !order;
               Engine.advance e 5)))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4 ] (List.rev !order)

(* A lock made on an engine reads who holds it from that engine: the
   contention counters attribute a wait to the holder's tid, and
   [held_by_self] answers per thread. Its name is registered by id. *)
let test_lock_engine_identity () =
  Sync.reset_lock_contention ();
  let e = Engine.create ~cores:2 () in
  let l = Sync.Rlock.create ~engine:e ~name:"lock.test.engine" () in
  let holder = ref (-1) and seen = ref [] in
  let worker () =
    Sync.Rlock.with_lock l (fun () ->
        if !holder < 0 then holder := Engine.current_tid ();
        seen := Sync.Rlock.held_by_self l :: !seen;
        Engine.advance e 10)
  in
  ignore (Engine.spawn e worker);
  ignore (Engine.spawn e worker);
  Engine.run e;
  Alcotest.(check (list bool)) "held by self inside" [ true; true ] !seen;
  Alcotest.(check bool) "not held outside" false (Sync.Rlock.held_by_self l);
  (match Sync.lock_contention () with
  | [ c ] ->
      Alcotest.(check int) "acquires" 2 c.Sync.acquires;
      Alcotest.(check int) "waits" 1 c.Sync.waits;
      Alcotest.(check (list (pair int int))) "wait attributed to holder"
        [ (!holder, 1) ] c.Sync.wait_holders
  | rows -> Alcotest.failf "expected one contention row, got %d" (List.length rows));
  Alcotest.(check (option string)) "name by id" (Some "lock.test.engine")
    (Ufork_util.Hb.lock_name (Sync.Rlock.id l));
  let named =
    List.init 300 (fun i ->
        let name = "lock.test.n" ^ string_of_int i in
        (Sync.Lock.create ~engine:e ~name (), name))
  in
  List.iter
    (fun (l, name) ->
      Alcotest.(check (option string)) "each name by id" (Some name)
        (Ufork_util.Hb.lock_name (Sync.Lock.id l)))
    named;
  Alcotest.(check (option string)) "unnamed" None
    (Ufork_util.Hb.lock_name (Sync.Lock.id (Sync.Lock.create ~engine:e ())));
  Sync.reset_lock_contention ()

let test_lock_release_unheld () =
  let l = Sync.Lock.create ~engine:(Engine.create ~cores:1 ()) () in
  Alcotest.check_raises "release unheld"
    (Invalid_argument "Lock.release: not held") (fun () -> Sync.Lock.release l)

let test_lock_released_on_exception () =
  let e = Engine.create ~cores:1 () in
  let l = Sync.Lock.create ~engine:e () in
  let ok = ref false in
  let _ =
    Engine.spawn e (fun () ->
        (try Sync.Lock.with_lock l (fun () -> failwith "boom")
         with Failure _ -> ());
        ok := not (Sync.Lock.locked l))
  in
  Engine.run e;
  Alcotest.(check bool) "released" true !ok

(* --- Cond --- *)

let test_cond_signal_order () =
  let e = Engine.create ~cores:2 () in
  let c = Sync.Cond.create ~engine:e () in
  let woken = ref [] in
  for i = 1 to 3 do
    ignore
      (Engine.spawn e (fun () ->
           Sync.Cond.wait c;
           woken := i :: !woken))
  done;
  let _ =
    Engine.spawn e (fun () ->
        Engine.advance e 10;
        Sync.Cond.signal c;
        Engine.advance e 10;
        Sync.Cond.broadcast c)
  in
  Engine.run e;
  Alcotest.(check int) "all woken" 3 (List.length !woken);
  Alcotest.(check int) "first is 1" 1 (List.nth (List.rev !woken) 0)

let test_cond_signal_empty () =
  let c = Sync.Cond.create ~engine:(Engine.create ~cores:1 ()) () in
  Sync.Cond.signal c;
  Alcotest.(check int) "no waiters" 0 (Sync.Cond.waiters c)

(* --- Meter --- *)

let test_meter () =
  let m = Meter.create () in
  Meter.incr m "a";
  Meter.incr m "a";
  Meter.add m "b" 5;
  Alcotest.(check int) "a" 2 (Meter.get m "a");
  Alcotest.(check int) "b" 5 (Meter.get m "b");
  Alcotest.(check int) "missing" 0 (Meter.get m "zzz");
  Meter.set m "a" 100;
  Alcotest.(check int) "set" 100 (Meter.get m "a");
  Alcotest.(check (list (pair string int))) "sorted" [ ("a", 100); ("b", 5) ]
    (Meter.to_list m);
  Meter.reset m;
  Alcotest.(check int) "reset" 0 (Meter.get m "a");
  (* Reset zeroes values but keeps the key registry: a meter that is
     printed or exported after reset still lists every key it ever saw. *)
  Alcotest.(check (list (pair string int)))
    "registry survives reset"
    [ ("a", 0); ("b", 0) ]
    (Meter.to_list m)

(* --- Costs --- *)

let test_costs_presets () =
  Alcotest.(check bool) "ufork syscall cheaper than cheribsd" true
    (Costs.ufork.Costs.syscall < Costs.cheribsd.Costs.syscall);
  Alcotest.(check int64) "single AS has no AS switch" 0L
    Costs.ufork.Costs.address_space_switch;
  Alcotest.(check bool) "nephele domain create dominates" true
    (Costs.nephele.Costs.domain_create > 10_000_000L);
  Alcotest.(check int) "bytes cost" 100 (Costs.bytes_cost 1.0 100)

(* --- Event bus (Trace) --- *)

let test_emit_charges_and_counts () =
  let e = Engine.create ~cores:1 () in
  let tr = Trace.create ~engine:e ~costs:Costs.ufork () in
  let _ =
    Engine.spawn e (fun () ->
        Trace.emit tr ~pid:(-1) Event.Context_switch;
        Trace.emit tr ~pid:7 (Event.Pte_copy 1);
        Trace.emit tr ~pid:(-1) (Event.Page_alloc 3))
  in
  Engine.run e;
  let m = Trace.meter tr in
  Alcotest.(check int) "context_switch" 1 (Meter.get m "context_switch");
  Alcotest.(check int) "pte_copy" 1 (Meter.get m "pte_copy");
  Alcotest.(check int) "page_alloc counts pages" 3 (Meter.get m "page_alloc");
  let expected =
    let c = Costs.ufork in
    Int64.add c.Costs.context_switch
      (Int64.add c.Costs.pte_copy (Int64.mul 3L c.Costs.page_alloc))
  in
  Alcotest.(check int64) "charged = engine busy cycles" expected
    (Trace.total_charged tr);
  Alcotest.(check int64) "engine advanced the same" expected
    (Engine.advanced e);
  Trace.audit tr ~costs:Costs.ufork ~elapsed:(Engine.advanced e)

let test_emit_outside_thread_counts_without_charging () =
  (* Boot-time emissions (initial image mapping, unit tests poking at a
     kernel directly) count in the meter but charge nothing. *)
  let e = Engine.create ~cores:1 () in
  let tr = Trace.create ~engine:e ~costs:Costs.ufork () in
  Trace.emit tr ~pid:(-1) (Event.Pte_copy 1);
  Alcotest.(check int) "counted" 1 (Meter.get (Trace.meter tr) "pte_copy");
  Alcotest.(check int64) "not charged" 0L (Trace.total_charged tr);
  Trace.audit tr ~costs:Costs.ufork ~elapsed:(Engine.advanced e)

(* Allocation is deterministic for a given binary, so a budget on it is
   a host-cost gate that timing noise cannot blur. On the direct path
   (one thread, nothing else scheduled) a fixed-cost event, a byte-scaled
   [Copy_bytes] and a syscall entry through one preallocated event
   charge, count and attribute without allocating. *)
let test_emit_allocates_nothing () =
  let e = Engine.create ~cores:1 () in
  let tr = Trace.create ~engine:e ~costs:Costs.ufork () in
  let events =
    [|
      Event.Context_switch;
      Event.Copy_bytes 4;
      Event.Syscall { name = "read"; trap = false };
    |]
  in
  let rounds = 1000 in
  let words = ref nan in
  let _ =
    Engine.spawn e (fun () ->
        (* First touches intern keys and create audit entries. *)
        Array.iter (Trace.emit tr ~pid:(-1)) events;
        let w0 = Gc.minor_words () in
        for _ = 1 to rounds do
          for i = 0 to Array.length events - 1 do
            Trace.emit tr ~pid:(-1) events.(i)
          done
        done;
        words := Gc.minor_words () -. w0)
  in
  Engine.run e;
  Alcotest.(check (float 0.)) "minor words per event" 0.
    (!words /. float_of_int (rounds * 3));
  Trace.audit tr ~costs:Costs.ufork ~elapsed:(Engine.advanced e)

let test_audit_catches_uncharged_advance () =
  (* A raw Engine.advance that bypasses the bus must trip the audit. *)
  let e = Engine.create ~cores:1 () in
  let tr = Trace.create ~engine:e ~costs:Costs.ufork () in
  let _ =
    Engine.spawn e (fun () ->
        Trace.emit tr ~pid:(-1) Event.Context_switch;
        Engine.advance e 123)
  in
  Engine.run e;
  match Trace.audit tr ~costs:Costs.ufork ~elapsed:(Engine.advanced e) with
  | () -> Alcotest.fail "audit accepted an uncharged advance"
  | exception Trace.Audit_failure _ -> ()

let test_trace_jsonl_record_shape () =
  let e = Engine.create ~cores:1 () in
  let tr = Trace.create ~engine:e ~costs:Costs.ufork () in
  Trace.set_recording tr true;
  let _ =
    Engine.spawn e (fun () ->
        Trace.emit tr ~pid:42 (Event.Syscall { name = "read"; trap = false }))
  in
  Engine.run e;
  match Trace.records tr with
  | [ r ] ->
      Alcotest.(check int) "pid" 42 r.Trace.pid;
      Alcotest.(check int) "core" 0 r.Trace.core;
      let line = Trace.record_to_json r in
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun field ->
          Alcotest.(check bool)
            (Printf.sprintf "JSONL has %S" field)
            true (contains line field))
        [ "\"t\":"; "\"core\":"; "\"tid\":"; "\"pid\":"; "\"event\":" ]
  | rs -> Alcotest.failf "expected 1 record, got %d" (List.length rs)

let prop_event_key_injective =
  (* No two constructors may share a counter key, or the audit's per-key
     recomputation (and every benchmark reading the meter) would conflate
     mechanisms. [Event.samples] holds one representative of each. *)
  let n = List.length Event.samples in
  QCheck.Test.make ~name:"Event.to_key is injective across constructors"
    ~count:200
    QCheck.(pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    (fun (i, j) ->
      let ei = List.nth Event.samples i and ej = List.nth Event.samples j in
      i = j || Event.to_key ei <> Event.to_key ej)

let prop_trace_ring_bounded_and_monotonic =
  QCheck.Test.make
    ~name:"trace ring stays bounded; per-core timestamps are monotonic"
    ~count:30
    QCheck.(
      triple (int_range 1 4) (int_range 1 32)
        (list_of_size Gen.(1 -- 8) (int_range 1 25)))
    (fun (cores, capacity, thread_events) ->
      let e = Engine.create ~cores () in
      let tr = Trace.create ~engine:e ~costs:Costs.ufork ~ring_capacity:capacity () in
      Trace.set_recording tr true;
      let total = List.fold_left ( + ) 0 thread_events in
      List.iter
        (fun n ->
          ignore
            (Engine.spawn e (fun () ->
                 for _ = 1 to n do
                   Trace.emit tr ~pid:(-1) Event.Context_switch;
                   Engine.yield ()
                 done)))
        thread_events;
      Engine.run e;
      let records = Trace.records tr in
      let kept = List.length records in
      let bounded = kept <= capacity && kept = min total capacity in
      let accounted = kept + Trace.dropped tr = total in
      (* Within one core, records appear in simulated-time order. *)
      let monotonic =
        let last = Hashtbl.create 8 in
        List.for_all
          (fun (r : Trace.record) ->
            let prev =
              Option.value (Hashtbl.find_opt last r.Trace.core) ~default:(-1L)
            in
            Hashtbl.replace last r.Trace.core r.Trace.t;
            r.Trace.t >= prev)
          records
      in
      bounded && accounted && monotonic)

(* --- Property: random workloads complete with consistent time --- *)

let prop_random_workload =
  QCheck.Test.make ~name:"random task graphs complete deterministically"
    ~count:50
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(1 -- 20) (int_range 1 500)))
    (fun (cores, works) ->
      let run () =
        let e = Engine.create ~cores () in
        let total = ref 0L in
        List.iter
          (fun w ->
            ignore
              (Engine.spawn e (fun () ->
                   Engine.advance e w;
                   Engine.yield ();
                   Engine.advance e w;
                   total := Int64.add !total (Int64.of_int w))))
          works;
        Engine.run e;
        (Engine.now e, !total, Engine.live_threads e)
      in
      let t1, sum1, live1 = run () in
      let t2, sum2, live2 = run () in
      let work_total =
        List.fold_left (fun acc w -> Int64.add acc (Int64.of_int (2 * w))) 0L works
      in
      (* Deterministic; everyone ran; makespan bounds hold. *)
      t1 = t2 && sum1 = sum2 && live1 = 0 && live2 = 0
      && t1 >= Int64.div work_total (Int64.of_int cores)
      && t1 <= work_total)

(* --- Schedule fingerprints ---

   Seeded random programs on 1 to 512 cores mix pinned and unpinned
   threads, zero and positive advances (through the effect and through
   Trace.emit's direct path), yields, sleeps, lock handoffs, condition
   waits and signals, and spawns from inside threads. Every step logs
   (tid, core, now); the log ends with the steal count. After the first
   run, the harness broadcasts every condition from outside event
   processing, so each wake dispatches at once and a woken thread that
   signals in turn dispatches a nested thread. The digest of each log is
   pinned in schedule_digests.txt: any change to dispatch order, core
   choice, stealing or the advance fast path moves some digest. *)

module Prng = Ufork_util.Prng

type sched_op =
  | S_advance of int
  | S_emit of int
  | S_yield
  | S_sleep of int
  | S_locked of int * int
  | S_wait of int
  | S_signal of int
  | S_broadcast of int
  | S_spawn of int option * sched_op list

let sched_locks = 3
let sched_conds = 3

let gen_affinity g ~cores =
  if Prng.int g 4 = 0 then Some (Prng.int g cores) else None

let rec gen_ops g ~cores ~depth =
  let rec go k acc =
    if k = 0 then List.rev acc
    else
      let op = gen_op g ~cores ~depth in
      go (k - 1) (op :: acc)
  in
  go (Prng.int_in g ~lo:1 ~hi:8) []

and gen_op g ~cores ~depth =
  match Prng.int g 20 with
  | 0 | 1 -> S_advance 0
  | 2 | 3 | 4 | 5 -> S_advance (Prng.int_in g ~lo:1 ~hi:60)
  | 6 | 7 -> S_emit (Prng.int_in g ~lo:1 ~hi:60)
  | 8 | 9 -> S_yield
  | 10 | 11 -> S_sleep (Prng.int g 80)
  | 12 | 13 ->
      let l = Prng.int g sched_locks in
      S_locked (l, Prng.int g 40)
  | 14 | 15 -> S_wait (Prng.int g sched_conds)
  | 16 -> S_signal (Prng.int g sched_conds)
  | 17 -> S_broadcast (Prng.int g sched_conds)
  | _ ->
      if depth >= 2 then S_yield
      else
        let affinity = gen_affinity g ~cores in
        S_spawn (affinity, gen_ops g ~cores ~depth:(depth + 1))

let schedule_log ~cores ~seed =
  let g = Prng.create ~seed:(Int64.of_int ((cores * 1000) + seed)) in
  let e = Engine.create ~cores () in
  let tr = Trace.create ~engine:e ~costs:Costs.ufork () in
  let locks = Array.init sched_locks (fun _ -> Sync.Lock.create ~engine:e ()) in
  let conds = Array.init sched_conds (fun _ -> Sync.Cond.create ~engine:e ()) in
  let b = Buffer.create 4096 in
  let rec body ops () =
    List.iter
      (fun op ->
        (match op with
        | S_advance n -> Engine.advance e n
        | S_emit n -> Trace.emit tr ~pid:(-1) (Event.Compute (Int64.of_int n))
        | S_yield -> Engine.yield ()
        | S_sleep n -> Engine.sleep e (Int64.of_int n)
        | S_locked (l, n) ->
            Sync.Lock.with_lock locks.(l) (fun () ->
                Engine.advance e n)
        | S_wait c -> Sync.Cond.wait conds.(c)
        | S_signal c -> Sync.Cond.signal conds.(c)
        | S_broadcast c -> Sync.Cond.broadcast conds.(c)
        | S_spawn (affinity, ops) ->
            ignore (Engine.spawn ?affinity e (body ops)));
        Printf.bprintf b "%d %d %Ld\n" (Engine.current_tid ())
          (Engine.current_core ()) (Engine.current_time ()))
      ops
  in
  for _ = 1 to Prng.int_in g ~lo:1 ~hi:((3 * cores) + 10) do
    let affinity = gen_affinity g ~cores in
    let ops = gen_ops g ~cores ~depth:0 in
    ignore (Engine.spawn ?affinity e (body ops))
  done;
  Engine.run e;
  let round = ref 0 in
  while Engine.blocked_threads e > 0 && !round < 4 do
    incr round;
    Printf.bprintf b "round %d at %Ld\n" !round (Engine.now e);
    Array.iter Sync.Cond.broadcast conds;
    Engine.run e
  done;
  Printf.bprintf b "steals %d now %Ld advanced %Ld live %d blocked %d\n"
    (Engine.steals e) (Engine.now e) (Engine.advanced e)
    (Engine.live_threads e) (Engine.blocked_threads e);
  Buffer.contents b

let schedule_programs =
  List.concat_map
    (fun (cores, seeds) -> List.init seeds (fun seed -> (cores, seed)))
    [ (1, 8); (2, 8); (3, 8); (8, 8); (64, 4); (512, 3) ]

let schedule_line (cores, seed) =
  Printf.sprintf "cores=%d seed=%d %s" cores seed
    (Digest.to_hex (Digest.string (schedule_log ~cores ~seed)))

let test_schedule_fingerprints () =
  let expected =
    In_channel.with_open_text "schedule_digests.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check (list string))
    "schedules match the fixture" expected
    (List.map schedule_line schedule_programs)

(* --- The engine against a reference model ---

   Random programs of advances, yields, sleeps, parks, wakes and spawns
   run on the engine and on a list-based reference: pending events in a
   list kept sorted by (time, seq), ready threads in one FIFO in stamp
   order, every advance through the event list (the engine's inline
   paths must be indistinguishable from it), a wake outside event
   processing dispatching at once. Threads are unpinned, so a dispatch
   runs the FIFO head on its home core when idle, else on the first idle
   core above it. Both sides log (tid, core, now) after every step; the
   logs, the steal count and the final clock must agree. *)

type m_op =
  | M_advance of int
  | M_yield
  | M_sleep of int
  | M_park
  | M_wake
  | M_spawn of m_op list

let rec pp_m_op = function
  | M_advance n -> Printf.sprintf "advance %d" n
  | M_yield -> "yield"
  | M_sleep n -> Printf.sprintf "sleep %d" n
  | M_park -> "park"
  | M_wake -> "wake"
  | M_spawn ops -> "spawn [" ^ String.concat "; " (List.map pp_m_op ops) ^ "]"

let m_op_gen =
  QCheck.Gen.(
    (* Small durations, so events often tie on time and seq decides. *)
    let leaf =
      frequency
        [
          (4, map (fun n -> M_advance n) (0 -- 6));
          (2, return M_yield);
          (2, map (fun n -> M_sleep n) (0 -- 6));
          (2, return M_park);
          (2, return M_wake);
        ]
    in
    let ops g = list_size (1 -- 6) g in
    frequency
      [ (12, leaf); (1, map (fun o -> M_spawn o) (ops leaf)) ])

(* The engine side: one log line per completed step. *)
let engine_log ~cores programs =
  let e = Engine.create ~cores () in
  let parked = Queue.create () in
  let b = Buffer.create 256 in
  let rec body ops () =
    List.iter
      (fun op ->
        (match op with
        | M_advance n -> Engine.advance e n
        | M_yield -> Engine.yield ()
        | M_sleep n -> Engine.sleep e (Int64.of_int n)
        | M_park ->
            Queue.push (Engine.waker e) parked;
            Engine.park e
        | M_wake ->
            if not (Queue.is_empty parked) then Engine.wake e (Queue.pop parked)
        | M_spawn ops -> ignore (Engine.spawn e (body ops)));
        Printf.bprintf b "%d@%d:%Ld " (Engine.running_tid e)
          (Engine.running_core e) (Engine.now e))
      ops
  in
  List.iter (fun ops -> ignore (Engine.spawn e (body ops))) programs;
  Engine.run e;
  Printf.bprintf b "| steals %d now %Ld blocked %d" (Engine.steals e)
    (Engine.now e) (Engine.blocked_threads e);
  Buffer.contents b

(* The reference: an interpreter over the same programs. *)
type m_action = Resume of int | Timer of int

let model_log ~cores programs =
  let b = Buffer.create 256 in
  let now = ref 0 and seq = ref 0 and steals = ref 0 in
  let in_event = ref false in
  let events = ref [] (* (time, seq, action), sorted *) in
  let ready = Queue.create () and parked = Queue.create () in
  let busy = Array.make cores false in
  let next_tid = ref 0 in
  let home = Hashtbl.create 16 and core = Hashtbl.create 16 in
  let rest = Hashtbl.create 16 and started = Hashtbl.create 16 in
  let blocked = ref 0 in
  let schedule time action =
    incr seq;
    events := List.merge compare !events [ (time, !seq, action) ]
  in
  let spawn ops =
    incr next_tid;
    Hashtbl.replace home !next_tid (!next_tid mod cores);
    Hashtbl.replace rest !next_tid ops;
    Queue.push !next_tid ready
  in
  let log tid =
    Printf.bprintf b "%d@%d:%d " tid (Hashtbl.find core tid) !now
  in
  let release tid = busy.(Hashtbl.find core tid) <- false in
  (* Run [tid] (on its core) until it gives up the core or finishes. *)
  let rec run tid =
    match Hashtbl.find rest tid with
    | [] -> release tid
    | op :: ops -> (
        Hashtbl.replace rest tid ops;
        match op with
        | M_advance n -> schedule (!now + n) (Resume tid)
        | M_yield ->
            release tid;
            Queue.push tid ready
        | M_sleep n ->
            release tid;
            incr blocked;
            schedule (!now + n) (Timer tid)
        | M_park ->
            release tid;
            incr blocked;
            Queue.push tid parked
        | M_wake ->
            if not (Queue.is_empty parked) then begin
              decr blocked;
              Queue.push (Queue.pop parked) ready;
              if not !in_event then dispatch ()
            end;
            log tid;
            run tid
        | M_spawn ops ->
            spawn ops;
            log tid;
            run tid)
  and dispatch () =
    let idle () = Array.exists not busy in
    while (not (Queue.is_empty ready)) && idle () do
      let tid = Queue.pop ready in
      let h = Hashtbl.find home tid in
      let c =
        if not busy.(h) then h
        else begin
          incr steals;
          let rec up k =
            let c = (h + k) mod cores in
            if busy.(c) then up (k + 1) else c
          in
          up 1
        end
      in
      busy.(c) <- true;
      Hashtbl.replace home tid c;
      Hashtbl.replace core tid c;
      (* Dispatched: a yield, a sleep or a park has returned, unless this
         is the thread's first dispatch. *)
      if Hashtbl.mem started tid then log tid
      else Hashtbl.replace started tid ();
      run tid
    done
  in
  List.iter spawn programs;
  dispatch ();
  while !events <> [] do
    match !events with
    | (time, _, action) :: later ->
        events := later;
        now := time;
        in_event := true;
        (match action with
        | Resume tid ->
            log tid;
            run tid
        | Timer tid ->
            decr blocked;
            Queue.push tid ready);
        in_event := false;
        dispatch ()
    | [] -> ()
  done;
  Printf.bprintf b "| steals %d now %d blocked %d" !steals !now !blocked;
  Buffer.contents b

let prop_engine_matches_model =
  QCheck.Test.make ~name:"engine = (time, seq) event list + stamp-order FIFO"
    ~count:300
    QCheck.(
      make
        ~print:(fun (cores, programs) ->
          Printf.sprintf "cores %d: %s" cores
            (String.concat " || "
               (List.map
                  (fun ops -> String.concat "; " (List.map pp_m_op ops))
                  programs)))
        Gen.(
          pair (1 -- 4)
            (list_size (1 -- 5) (list_size (1 -- 8) m_op_gen))))
    (fun (cores, programs) ->
      let got = engine_log ~cores programs
      and want = model_log ~cores programs in
      if got <> want then
        QCheck.Test.fail_reportf "engine %s\nmodel  %s" got want
      else true)

(* --- The waker's one-shot contract --- *)

let test_waker_second_wake_raises () =
  let e = Engine.create ~cores:1 () in
  let w = ref Engine.no_waker and resumed = ref 0 in
  let _ =
    Engine.spawn e (fun () ->
        w := Engine.waker e;
        Engine.park e;
        incr resumed;
        (* Parked again: the first waker must not end this park. *)
        Engine.park e)
  in
  Engine.run e;
  let first = !w in
  Engine.wake e first;
  Engine.run e;
  Alcotest.(check int) "woken once" 1 !resumed;
  Alcotest.check_raises "second wake"
    (Invalid_argument "Engine.wake: waker already used") (fun () ->
      Engine.wake e first);
  Alcotest.(check bool) "not pending" false (Engine.waker_pending e first);
  Alcotest.(check int) "still parked" 1 (Engine.blocked_threads e)

(* A kill wakes a process parked in the kernel through the waker in its
   kill slot, leaving that waker in the condition's queue. A later
   signal must skip it and wake the thread that is really waiting. *)
let test_waker_stale_in_cond_skipped () =
  let e = Engine.create ~cores:2 () in
  let c = Sync.Cond.create ~engine:e () in
  let kill_slot = ref Engine.no_waker and log = ref [] in
  let _ =
    Engine.spawn e (fun () ->
        let w = Engine.waker e in
        kill_slot := w;
        Sync.Cond.add_waiter c w;
        Engine.park e;
        log := "victim woken" :: !log)
  in
  let _ =
    Engine.spawn e (fun () ->
        Engine.advance e 10;
        Sync.Cond.wait c;
        log := "waiter woken" :: !log)
  in
  Engine.run e;
  Alcotest.(check int) "two waiters" 2 (Sync.Cond.waiters c);
  Engine.wake e !kill_slot;
  Engine.run e;
  Sync.Cond.signal c;
  Engine.run e;
  Alcotest.(check (list string)) "kill, then the real waiter"
    [ "victim woken"; "waiter woken" ] (List.rev !log);
  Alcotest.(check int) "queue drained" 0 (Sync.Cond.waiters c);
  Alcotest.(check int) "nobody blocked" 0 (Engine.blocked_threads e)

(* A waker outlives its thread: once that thread has finished, the
   waker must not reach a later thread, whatever table slot it takes. *)
let test_waker_never_reaches_later_thread () =
  let e = Engine.create ~cores:1 () in
  let old = ref Engine.no_waker in
  let _ =
    Engine.spawn e (fun () ->
        old := Engine.waker e;
        Engine.park e)
  in
  Engine.run e;
  let stale = !old in
  Engine.wake e stale;
  Engine.run e;
  Alcotest.(check int) "first thread finished" 0 (Engine.live_threads e);
  let later = ref Engine.no_waker in
  let _ =
    Engine.spawn e (fun () ->
        later := Engine.waker e;
        Engine.park e)
  in
  Engine.run e;
  Alcotest.(check bool) "stale not pending" false
    (Engine.waker_pending e stale);
  Alcotest.check_raises "stale wake refused"
    (Invalid_argument "Engine.wake: waker already used") (fun () ->
      Engine.wake e stale);
  Alcotest.(check int) "later thread still parked" 1 (Engine.blocked_threads e);
  Alcotest.(check bool) "its own waker pending" true
    (Engine.waker_pending e !later);
  Engine.wake e !later;
  Engine.run e;
  Alcotest.(check int) "then it finishes" 0 (Engine.live_threads e)

let qt = QCheck_alcotest.to_alcotest

let suite =
  [
    ("single thread time", `Quick, test_single_thread_time);
    ("two cores parallel", `Quick, test_two_cores_parallel);
    ("one core serializes", `Quick, test_one_core_serializes);
    ("affinity", `Quick, test_affinity);
    ("yield migration", `Quick, test_yield_migration);
    ("sleep", `Quick, test_sleep);
    ("spawn from thread", `Quick, test_spawn_from_thread);
    ("run until", `Quick, test_run_until);
    ("blocked reported", `Quick, test_blocked_thread_reported);
    ("deterministic schedule", `Quick, test_determinism);
    ("zero advance", `Quick, test_zero_advance);
    ("negative advance", `Quick, test_negative_advance_rejected);
    ("spawn storm", `Quick, test_spawn_storm);
    ("same-time FIFO", `Quick, test_same_time_fifo);
    ("ready FIFO across run queues", `Quick, test_ready_fifo_across_queues);
    ("steal re-homes to idle core", `Quick, test_steal_rehomes);
    ("blocked pinned entry does not shadow", `Quick,
     test_pinned_blocked_does_not_shadow);
    ("128 cores fully parallel", `Quick, test_many_cores_parallel);
    ("waker pending", `Quick, test_waker_pending);
    ("lock mutual exclusion", `Quick, test_lock_mutual_exclusion);
    ("lock fifo", `Quick, test_lock_fifo);
    ("lock reads identity from its engine", `Quick, test_lock_engine_identity);
    ("lock release unheld", `Quick, test_lock_release_unheld);
    ("lock release on exception", `Quick, test_lock_released_on_exception);
    ("cond signal order", `Quick, test_cond_signal_order);
    ("cond signal empty", `Quick, test_cond_signal_empty);
    ("meter", `Quick, test_meter);
    ("costs presets", `Quick, test_costs_presets);
    ("emit charges and counts", `Quick, test_emit_charges_and_counts);
    ( "emit outside thread",
      `Quick,
      test_emit_outside_thread_counts_without_charging );
    ("audit catches raw advance", `Quick, test_audit_catches_uncharged_advance);
    ("jsonl record shape", `Quick, test_trace_jsonl_record_shape);
    ("emit allocates nothing", `Quick, test_emit_allocates_nothing);
    ("schedule fingerprints", `Quick, test_schedule_fingerprints);
    qt prop_event_key_injective;
    qt prop_trace_ring_bounded_and_monotonic;
    qt prop_random_workload;
    qt prop_engine_matches_model;
    ("waker: a second wake raises", `Quick, test_waker_second_wake_raises);
    ("waker: a stale one in a cond queue is skipped", `Quick,
     test_waker_stale_in_cond_skipped);
    ("waker: never reaches a later thread", `Quick,
     test_waker_never_reaches_later_thread);
  ]
