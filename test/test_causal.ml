(* Causal trace graph + critical-path analyzer, three legs:
   - unit: hand-fed Hb event sequences under a controlled clock — a
     lock hand-off chain is walked to the holder with the wait blamed
     on the lock, a timer wake yields a Sleep segment (the stall itself
     is the path), and the tiling audit identity (Σ segments = wall =
     Σ blame) holds on both;
   - integration: a real fork-storm run armed through the experiment
     harness produces completed fork windows whose analyzed interval
     tiles exactly and blames the fork spine, and the analyzer's
     per-lock wait counts agree with Sync's contention counters;
   - exports: JSON / DOT / Chrome shapes. *)

module Causal = Ufork_analysis.Causal
module Hb = Ufork_util.Hb
module Sync = Ufork_sim.Sync
module Strategy = Ufork_core.Strategy
module E = Ufork_workload.Experiments

(* {1 Unit: hand-fed timelines} *)

(* A lock id far above anything Sync allocates in one test process, so
   naming it cannot collide with a booted machine's registry. *)
let test_lock = 991_991

let collector () =
  let c = Causal.create () in
  let now = ref 0L in
  Causal.set_now c (fun () -> !now);
  let at t evs =
    now := t;
    List.iter (Causal.handle c) evs
  in
  (c, at)

let seg_cycles (s : Causal.segment) = Int64.sub s.Causal.s_t1 s.Causal.s_t0

let check_tiling (r : Causal.report) =
  let wall = Int64.sub r.Causal.r_t1 r.Causal.r_t0 in
  Alcotest.(check int64)
    "segments tile the interval" wall
    (List.fold_left
       (fun acc s -> Int64.add acc (seg_cycles s))
       0L r.Causal.r_segments);
  Alcotest.(check int64)
    "blame sums to the path" wall
    (List.fold_left (fun acc (_, c) -> Int64.add acc c) 0L r.Causal.r_blame)

let test_handoff_chain () =
  Hb.set_lock_name test_lock "lock.test";
  let c, at = collector () in
  at 0L [ Hb.Span_open { tid = 0; name = "main" } ];
  at 10L [ Hb.Spawn { parent = 0; child = 1 }; Hb.Wake { by = 0; target = 1 } ];
  at 20L [ Hb.Span_open { tid = 1; name = "work" } ];
  at 30L
    [
      Hb.Contend { tid = 1; lock = test_lock; holder = 2 };
      Hb.Block { tid = 1 };
    ];
  at 80L
    [
      Hb.Handoff { from_ = 2; to_ = 1; lock = test_lock };
      Hb.Wake { by = 2; target = 1 };
    ];
  at 100L [ Hb.Span_close { tid = 1; name = "work" } ];
  Alcotest.(check int64) "horizon" 100L (Causal.horizon c);
  Alcotest.(check bool) "events folded" true (Causal.events_seen c > 0);
  let r = Causal.analyze c ~anchor:1 ~t0:0L ~t1:100L () in
  check_tiling r;
  Alcotest.(check int) "anchor" 1 r.Causal.r_anchor;
  (match r.Causal.r_chains with
  | [ ch ] ->
      Alcotest.(check int) "waiter" 1 ch.Causal.c_waiter;
      Alcotest.(check int) "holder" 2 ch.Causal.c_holder;
      Alcotest.(check string) "lock name" "lock.test" ch.Causal.c_lock;
      Alcotest.(check int64) "contend-to-handoff wait" 50L ch.Causal.c_cycles;
      Alcotest.(check string) "waiter span" "work" ch.Causal.c_waiter_span
  | chs -> Alcotest.failf "expected one chain, got %d" (List.length chs));
  (match Causal.dominant_lock r with
  | Some (lock, cycles) ->
      Alcotest.(check string) "dominant lock" "lock.test" lock;
      Alcotest.(check int64) "dominant cycles" 50L cycles
  | None -> Alcotest.fail "no dominant lock");
  (* The run segment after the wake carries the waiter's open span. *)
  Alcotest.(check bool) "a path segment runs inside \"work\"" true
    (List.exists
       (fun (s : Causal.segment) ->
         s.Causal.s_tid = 1 && s.Causal.s_span = "work"
         && s.Causal.s_kind = Causal.Run)
       r.Causal.r_segments);
  (* Whole-run lock totals count the one wait with its full latency. *)
  match
    List.find_opt (fun (n, _, _) -> n = "lock.test") r.Causal.r_lock_waits
  with
  | Some (_, waits, cycles) ->
      Alcotest.(check int) "one recorded wait" 1 waits;
      Alcotest.(check int64) "recorded wait cycles" 50L cycles
  | None -> Alcotest.fail "lock.test missing from wait totals"

let test_timer_sleep () =
  let c, at = collector () in
  at 10L [ Hb.Block { tid = 1 } ];
  at 60L [ Hb.Wake { by = -1; target = 1 } ];
  at 100L [ Hb.Span_open { tid = 1; name = "late" } ];
  let r = Causal.analyze c ~anchor:1 ~t0:0L ~t1:100L () in
  check_tiling r;
  Alcotest.(check bool) "no chains" true (r.Causal.r_chains = []);
  match
    List.filter
      (fun (s : Causal.segment) -> s.Causal.s_kind = Causal.Sleep)
      r.Causal.r_segments
  with
  | [ s ] ->
      Alcotest.(check int64) "sleep start" 10L s.Causal.s_t0;
      Alcotest.(check int64) "sleep end" 60L s.Causal.s_t1
  | ss -> Alcotest.failf "expected one sleep segment, got %d" (List.length ss)

(* {1 Integration: a real armed run} *)

let with_causal_storm f =
  E.with_plan { E.Run.default with detectors = [ E.Run.Causal ] } (fun () ->
      Sync.reset_lock_contention ();
      ignore
        (E.fork_storm_run (E.Ufork Strategy.Copa) ~cores:4 ~iters:3 ());
      match E.causal_graph () with
      | Some g -> f g
      | None -> Alcotest.fail "no causal graph collected")

let test_storm_fork_window () =
  with_causal_storm (fun g ->
      let windows = Causal.fork_windows g in
      Alcotest.(check bool) "fork windows completed" true (windows <> []);
      let r = Causal.analyze_fork g 0 in
      check_tiling r;
      let tid, t0, t1 = List.hd windows in
      Alcotest.(check int64) "interval open" t0 r.Causal.r_t0;
      Alcotest.(check int64) "interval close" t1 r.Causal.r_t1;
      Alcotest.(check int) "anchored at the forker" tid r.Causal.r_anchor;
      (* The window is the fork span itself, so the blame lands inside
         the fork spine (or in waits the fork crossed). *)
      Alcotest.(check bool) "fork spine blamed" true
        (List.exists
           (fun (path, _) ->
             List.exists
               (fun seg ->
                 seg = "fork"
                 || String.length seg > 5 && String.sub seg 0 5 = "fork.")
               (String.split_on_char ';' path))
           r.Causal.r_blame);
      Alcotest.check_raises "fork index out of range"
        (Invalid_argument
           (Printf.sprintf
              "Causal.analyze_fork: fork %d out of range (%d completed)" 9999
              (List.length windows)))
        (fun () -> ignore (Causal.analyze_fork g 9999)))

let test_storm_wait_counts_match_sync () =
  with_causal_storm (fun g ->
      let r = Causal.analyze g ~t0:0L ~t1:(Causal.horizon g) () in
      check_tiling r;
      List.iter
        (fun (c : Sync.contention) ->
          if c.Sync.waits > 0 then
            let causal =
              match
                List.find_opt
                  (fun (n, _, _) -> n = c.Sync.lock)
                  r.Causal.r_lock_waits
              with
              | Some (_, w, _) -> w
              | None -> 0
            in
            Alcotest.(check int)
              (Printf.sprintf "wait count for %s" c.Sync.lock)
              c.Sync.waits causal)
        (Sync.lock_contention ()))

(* {1 Exports} *)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_exports () =
  Hb.set_lock_name test_lock "lock.test";
  let c, at = collector () in
  at 5L [ Hb.Span_open { tid = 0; name = "phase" } ];
  at 10L
    [
      Hb.Contend { tid = 0; lock = test_lock; holder = 1 };
      Hb.Block { tid = 0 };
    ];
  at 40L
    [
      Hb.Handoff { from_ = 1; to_ = 0; lock = test_lock };
      Hb.Wake { by = 1; target = 0 };
    ];
  at 50L [ Hb.Span_close { tid = 0; name = "phase" } ];
  let r = Causal.analyze c ~anchor:0 ~t0:0L ~t1:50L () in
  let json = Causal.to_json r in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "json has %s" needle)
        true (contains ~needle json))
    [ {|"t0": 0|}; {|"t1": 50|}; {|"segments"|}; {|"chains"|};
      {|"lock.test"|}; {|"blame"|} ];
  let dot = Causal.to_dot r in
  Alcotest.(check bool) "dot digraph" true (contains ~needle:"digraph" dot);
  Alcotest.(check bool) "dot wait edge" true (contains ~needle:"dashed" dot);
  let chrome = Causal.to_chrome r in
  Alcotest.(check bool) "chrome is an array" true
    (String.length chrome > 0 && chrome.[0] = '[');
  Alcotest.(check bool) "chrome complete events" true
    (contains ~needle:{|"ph": "X"|} chrome || contains ~needle:{|"ph":"X"|} chrome)

let suite =
  [
    Alcotest.test_case "hand-off chain walked to the holder" `Quick
      test_handoff_chain;
    Alcotest.test_case "timer wake yields a sleep segment" `Quick
      test_timer_sleep;
    Alcotest.test_case "storm: fork window tiles and blames the spine"
      `Quick test_storm_fork_window;
    Alcotest.test_case "storm: wait counts match the lock counters" `Quick
      test_storm_wait_counts_match_sync;
    Alcotest.test_case "exports: json, dot, chrome" `Quick test_exports;
  ]
