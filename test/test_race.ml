(* The race-detector suite has three legs:
   - algebraic: qcheck laws for the vector-clock lattice (partial order,
     join as least upper bound, strict monotonicity of [incr]);
   - unit: hand-fed Hb event sequences — each ordering edge kind
     (lock hand-off, spawn, wake) suppresses the race it should, the
     atomic frame-refcount model never races, and unordered conflicting
     writes yield exactly one race per location;
   - integration: a full checked run stays clean with the big kernel
     lock, and the [--chaos-no-bkl] injection (lock disabled plus a
     deliberate unlocked gauge write) is caught as exactly R1. *)

module Vclock = Ufork_analysis.Vclock
module Race = Ufork_analysis.Race
module Checker = Ufork_analysis.Checker
module Hb = Ufork_util.Hb
module Strategy = Ufork_core.Strategy
module E = Ufork_workload.Experiments

(* {1 Vector-clock laws} *)

let clock_of_counts counts =
  List.fold_left
    (fun c (tid, n) ->
      let rec go c k = if k = 0 then c else go (Vclock.incr c tid) (k - 1) in
      go c n)
    Vclock.empty counts

let clock_gen =
  QCheck.(
    map clock_of_counts
      (small_list (pair (int_bound 3) (int_bound 4))))

let law name gen f = QCheck.Test.make ~count:300 ~name gen f

let vclock_laws =
  [
    law "leq reflexive" clock_gen (fun a -> Vclock.leq a a);
    law "leq antisymmetric" (QCheck.pair clock_gen clock_gen) (fun (a, b) ->
        (not (Vclock.leq a b && Vclock.leq b a)) || Vclock.equal a b);
    law "leq transitive"
      (QCheck.triple clock_gen clock_gen clock_gen)
      (fun (a, b, c) ->
        (not (Vclock.leq a b && Vclock.leq b c)) || Vclock.leq a c);
    law "join is an upper bound" (QCheck.pair clock_gen clock_gen)
      (fun (a, b) ->
        let j = Vclock.join a b in
        Vclock.leq a j && Vclock.leq b j);
    law "join is the least upper bound"
      (QCheck.triple clock_gen clock_gen clock_gen)
      (fun (a, b, c) ->
        (not (Vclock.leq a c && Vclock.leq b c))
        || Vclock.leq (Vclock.join a b) c);
    law "join commutative" (QCheck.pair clock_gen clock_gen) (fun (a, b) ->
        Vclock.equal (Vclock.join a b) (Vclock.join b a));
    law "join associative"
      (QCheck.triple clock_gen clock_gen clock_gen)
      (fun (a, b, c) ->
        Vclock.equal
          (Vclock.join a (Vclock.join b c))
          (Vclock.join (Vclock.join a b) c));
    law "join idempotent" clock_gen (fun a ->
        Vclock.equal (Vclock.join a a) a);
    law "incr strictly increases" (QCheck.pair clock_gen (QCheck.int_bound 3))
      (fun (a, t) -> Vclock.lt a (Vclock.incr a t));
    law "join is pointwise max"
      (QCheck.triple clock_gen clock_gen (QCheck.int_bound 3))
      (fun (a, b, t) ->
        Vclock.get (Vclock.join a b) t = max (Vclock.get a t) (Vclock.get b t));
  ]

(* {1 Unit: hand-fed event sequences} *)

let replay events =
  let d = Race.create () in
  Race.attach d;
  Fun.protect
    ~finally:(fun () -> Race.detach ())
    (fun () -> List.iter Hb.emit events);
  d

let gauge_write tid = Hb.Write { tid; loc = Hb.Gauge "g"; site = "test" }
let pte_write tid vpn = Hb.Write { tid; loc = Hb.Pte { table = 1; vpn }; site = "test" }
let frame_write tid = Hb.Write { tid; loc = Hb.Frame 7; site = "test" }

let test_unordered_race () =
  let d = replay [ gauge_write 1; gauge_write 2 ] in
  Alcotest.(check int) "one race" 1 (List.length (Race.races d));
  match Race.races d with
  | [ r ] ->
      Alcotest.(check int) "first writer" 1 r.Race.first.Race.tid;
      Alcotest.(check int) "second writer" 2 r.Race.second.Race.tid
  | _ -> assert false

let test_one_report_per_location () =
  let d = replay [ gauge_write 1; gauge_write 2; gauge_write 1; gauge_write 2 ] in
  Alcotest.(check int) "deduplicated" 1 (List.length (Race.races d));
  let d =
    replay [ pte_write 1 0; pte_write 2 0; pte_write 1 9; pte_write 2 9 ]
  in
  Alcotest.(check int) "distinct vpns are distinct locations" 2
    (List.length (Race.races d))

let test_same_tid_never_races () =
  let d = replay [ gauge_write 1; gauge_write 1; pte_write 1 0; pte_write 1 0 ] in
  Alcotest.(check int) "program order suffices" 0 (List.length (Race.races d))

let test_lock_handoff_orders () =
  let d =
    replay
      [
        Hb.Acquire { tid = 1; lock = 0 };
        gauge_write 1;
        Hb.Release { tid = 1; lock = 0 };
        Hb.Acquire { tid = 2; lock = 0 };
        gauge_write 2;
        Hb.Release { tid = 2; lock = 0 };
      ]
  in
  Alcotest.(check int) "lock hand-off is an edge" 0 (List.length (Race.races d));
  (* A different lock draws no edge between these threads. *)
  let d =
    replay
      [
        Hb.Acquire { tid = 1; lock = 0 };
        gauge_write 1;
        Hb.Release { tid = 1; lock = 0 };
        Hb.Acquire { tid = 2; lock = 5 };
        gauge_write 2;
        Hb.Release { tid = 2; lock = 5 };
      ]
  in
  Alcotest.(check int) "disjoint locks do not order" 1
    (List.length (Race.races d))

let test_spawn_orders () =
  let d = replay [ pte_write 1 3; Hb.Spawn { parent = 1; child = 2 }; pte_write 2 3 ] in
  Alcotest.(check int) "spawn is an edge" 0 (List.length (Race.races d));
  let d = replay [ Hb.Spawn { parent = 1; child = 2 }; pte_write 1 3; pte_write 2 3 ] in
  Alcotest.(check int) "writes after the spawn still race" 1
    (List.length (Race.races d))

let test_wake_orders () =
  let d = replay [ gauge_write 1; Hb.Wake { by = 1; target = 2 }; gauge_write 2 ] in
  Alcotest.(check int) "wake is an edge" 0 (List.length (Race.races d))

let test_frames_are_atomic () =
  (* Frame refcounts model atomic RMWs: concurrent updates synchronize
     rather than race, and the joined clock orders later accesses. *)
  let d = replay [ frame_write 1; frame_write 2; frame_write 1 ] in
  Alcotest.(check int) "atomics never race" 0 (List.length (Race.races d));
  let d = replay [ gauge_write 1; frame_write 1; frame_write 2; gauge_write 2 ] in
  Alcotest.(check int) "atomic RMW chain carries the edge" 0
    (List.length (Race.races d))

let test_violation_rendering () =
  let d = replay [ gauge_write 1; gauge_write 2 ] in
  match Race.violations d with
  | [ v ] ->
      Alcotest.(check string) "id" "R1" (Ufork_analysis.Invariant.id v.invariant);
      Alcotest.(check bool) "names the location" true
        (let detail = v.Ufork_analysis.Invariant.detail in
         String.length detail > 0)
  | vs -> Alcotest.failf "expected one violation, got %d" (List.length vs)

(* {1 Integration: checked runs} *)

let with_race_detection ~chaos f =
  E.with_plan
    {
      E.Run.default with
      detectors = [ E.Run.Race ];
      chaos = (if chaos then [ Ufork_analysis.Chaos.No_bkl ] else []);
    }
    f

let test_locked_run_clean () =
  with_race_detection ~chaos:false (fun () ->
      let r = E.hello_run (E.Ufork Strategy.Copa) in
      Alcotest.(check bool) "run completes" true (r.E.fork_latency_us > 0.))

let test_chaos_caught_as_r1 () =
  with_race_detection ~chaos:true (fun () ->
      match E.hello_run (E.Ufork Strategy.Copa) with
      | _ -> Alcotest.fail "unlocked chaos access escaped the detector"
      | exception Checker.Unsafe report ->
          let contains needle hay =
            let nh = String.length hay and nn = String.length needle in
            let rec go i =
              i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
            in
            go 0
          in
          Alcotest.(check bool) "report cites R1" true (contains "R1" report);
          Alcotest.(check bool) "report cites data-race" true
            (contains "data-race" report);
          Alcotest.(check bool) "no other invariant fires" false
            (contains "S1" report || contains "L1" report))

let suite =
  List.map QCheck_alcotest.to_alcotest vclock_laws
  @ [
      Alcotest.test_case "unordered writes race" `Quick test_unordered_race;
      Alcotest.test_case "one report per location" `Quick
        test_one_report_per_location;
      Alcotest.test_case "program order suffices" `Quick
        test_same_tid_never_races;
      Alcotest.test_case "lock hand-off orders" `Quick test_lock_handoff_orders;
      Alcotest.test_case "spawn orders" `Quick test_spawn_orders;
      Alcotest.test_case "wake orders" `Quick test_wake_orders;
      Alcotest.test_case "frame refcounts are atomic" `Quick
        test_frames_are_atomic;
      Alcotest.test_case "violations render as R1" `Quick
        test_violation_rendering;
      Alcotest.test_case "locked run is clean" `Quick test_locked_run_clean;
      Alcotest.test_case "chaos unlocked access caught as R1" `Quick
        test_chaos_caught_as_r1;
    ]
