(* The sanitizer/linter test suite has four legs:
   - catalogue sanity: stable ids, one chaos scenario per invariant;
   - precision via fault injection: every Chaos scenario is detected, and
     every violation it reports carries exactly the intended invariant;
   - the run-time controls: every injection of [Chaos.injections] judged
     by a detector fails its run with exactly one violation of its
     invariant, and a run plan leaves nothing armed behind it;
   - zero false positives: the uninjected machine and stream are clean,
     and real experiment runs (which call [Checker.assert_safe] on every
     machine before returning) complete across systems. *)

module Invariant = Ufork_analysis.Invariant
module Chaos = Ufork_analysis.Chaos
module Strategy = Ufork_core.Strategy
module E = Ufork_workload.Experiments
module Checker = Ufork_analysis.Checker
module Relocate = Ufork_core.Relocate

let all_ids =
  [ "S1"; "S2"; "S3"; "S4"; "S5"; "S6"; "S7"; "S8"; "S9"; "S10"; "S11";
    "L1"; "L2"; "L3"; "L4"; "L5" ]

(* R1 (data-race), R2 (lock-order), R3 (lock-stall) and R4
   (cap-provenance) close the catalogue; their chaos scenarios are
   dynamic (runs under [--chaos-no-bkl], [--chaos-invert-shard-order],
   [--chaos-stall-shard] and the three capflow injections), so they live
   outside [Chaos.scenarios]. *)
let catalogue_ids = all_ids @ [ "R1"; "R2"; "R3"; "R4" ]

let test_catalogue () =
  Alcotest.(check (list string)) "stable ids" catalogue_ids
    (List.map Invariant.id Invariant.all);
  Alcotest.(check int) "ids unique" (List.length Invariant.all)
    (List.length (List.sort_uniq compare (List.map Invariant.id Invariant.all)));
  Alcotest.(check int) "names unique" (List.length Invariant.all)
    (List.length
       (List.sort_uniq compare (List.map Invariant.name Invariant.all)));
  Alcotest.(check string) "empty report" "" (Invariant.report [])

let test_scenarios_cover_catalogue () =
  (* One injection per invariant, in catalogue order: the chaos suite is
     the sanitizer's coverage map. *)
  Alcotest.(check (list string)) "one scenario per invariant" all_ids
    (List.map (fun s -> Invariant.id s.Chaos.expected) Chaos.scenarios)

let test_clean_machine () =
  Alcotest.(check string) "uninjected machine sweeps clean" ""
    (Invariant.report (Chaos.clean_machine ()))

let test_clean_protocol () =
  Alcotest.(check string) "well-formed stream lints clean" ""
    (Invariant.report (Chaos.clean_protocol ()))

(* Each scenario must be detected, and detected precisely: all reported
   violations carry the scenario's own invariant, proving the injected
   fault does not bleed into neighbouring detectors. *)
let scenario_case (s : Chaos.scenario) =
  ( s.Chaos.name,
    `Quick,
    fun () ->
      let vs = s.Chaos.detect () in
      Alcotest.(check bool)
        (Printf.sprintf "%s detected" s.Chaos.name)
        true (vs <> []);
      List.iter
        (fun (v : Invariant.violation) ->
          Alcotest.(check string)
            (Printf.sprintf "%s trips only %s" s.Chaos.name
               (Invariant.id s.Chaos.expected))
            (Invariant.id s.Chaos.expected)
            (Invariant.id v.Invariant.invariant))
        vs )

(* Real runs: every experiment driver ends with [Checker.assert_safe],
   which raises on any S- or L-violation. Recording is forced on so the
   protocol linter sees the genuine event stream, not an empty one. *)
let test_clean_runs () =
  E.with_plan { E.Run.default with record = true } (fun () ->
      List.iter
        (fun sys -> ignore (E.hello_run sys))
        [
          E.Ufork Strategy.Copa;
          E.Ufork Strategy.Coa;
          E.Ufork Strategy.Full_copy;
          E.Ufork_toctou Strategy.Copa;
          E.Cheribsd;
          E.Nephele;
        ];
      ignore
        (E.unixbench_run (E.Ufork Strategy.Copa) ~spawn_iters:20
           ~context1_iters:200);
      ignore
        (E.redis_run (E.Ufork Strategy.Coa) ~entries:20 ~value_len:4096
           ~db_label:"80 KB"))

(* {1 Run-time controls} *)

let copa = E.Ufork Strategy.Copa
let storm ?(cores = 4) system () = ignore (E.fork_storm_run system ~cores ~iters:4 ())

(* The detector that judges each invariant a control violates. R3's
   verdict is computed by the [explain] front end from the analysis, so
   the stall control is covered there, not here. *)
let detector_of = function
  | Invariant.Data_race -> Some E.Run.Race
  | Invariant.Lock_order -> Some E.Run.Lockdep
  | Invariant.Cap_provenance -> Some E.Run.Capflow
  | _ -> None

(* The workload and flavour each control is run on, as in CI's must-fail
   steps: the unlocked-write seed fires on any fork, the shard controls
   need concurrent forkers on a sharded machine, the relocation
   sabotage needs a flavour with a tag scan, and the root leak is
   flavour-independent. *)
let runs_of = function
  | Chaos.No_bkl -> [ ("hello", fun () -> ignore (E.hello_run copa)) ]
  | Chaos.Unshard | Chaos.Invert_shard_order ->
      [ ("storm at 64 cores", storm ~cores:64 copa) ]
  | Chaos.Skip_rebase | Chaos.Heap_smuggle -> [ ("storm", storm copa) ]
  | Chaos.Leak_root ->
      [ ("storm", storm copa); ("cheribsd storm", storm E.Cheribsd) ]
  | Chaos.Stall_shard -> []

let test_controls_fail_exactly () =
  List.iter
    (fun (c : Chaos.control) ->
      match detector_of c.Chaos.violates with
      | None -> ()
      | Some d ->
          let want = Invariant.id c.Chaos.violates in
          List.iter
            (fun (label, run) ->
              let what = Printf.sprintf "--%s on %s" c.Chaos.flag label in
              let plan =
                {
                  E.Run.default with
                  record = true;
                  detectors = [ d ];
                  chaos = [ c.Chaos.injection ];
                }
              in
              match E.with_plan plan run with
              | () -> Alcotest.failf "%s escaped its detector" what
              | exception Checker.Unsafe report -> (
                  match String.split_on_char '\n' report with
                  | count :: first :: _ ->
                      Alcotest.(check string)
                        (what ^ ": one violation") "1 invariant violation(s):"
                        count;
                      Alcotest.(check string)
                        (what ^ ": of " ^ want) ("[" ^ want ^ ":")
                        (String.sub first 0
                           (min (String.length first) (String.length want + 2)))
                  | _ -> Alcotest.failf "%s: malformed report %S" what report))
            (runs_of c.Chaos.injection))
    Chaos.injections

(* Nothing a plan arms outlives it. A skipped rebase armed for CheriBSD,
   which never relocates, is never consumed; it used to stay armed and
   fail the next capflow-checked μFork storm with R4. *)
let test_plan_leaves_nothing_armed () =
  let capflow = { E.Run.default with detectors = [ E.Run.Capflow ] } in
  let row () = E.fork_storm_run copa ~cores:4 ~iters:4 () in
  let before = row () in
  E.with_plan
    { E.Run.default with chaos = [ Chaos.Skip_rebase ] }
    (fun () -> ignore (E.hello_run E.Cheribsd));
  Alcotest.(check bool) "unconsumed skip-rebase cleared" false
    !Relocate.chaos_skip_rebase;
  E.with_plan capflow (storm copa);
  (match
     E.with_plan
       {
         E.Run.default with
         detectors = [ E.Run.Race; E.Run.Capflow ];
         chaos = [ Chaos.No_bkl; Chaos.Skip_rebase ];
       }
       (fun () -> E.hello_run E.Cheribsd)
   with
  | _ -> Alcotest.fail "the seeded race escaped"
  | exception Checker.Unsafe _ -> ());
  Alcotest.(check bool) "previous plan restored" true
    (E.current_plan () = E.Run.default);
  Alcotest.(check bool) "skip-rebase cleared after a failed body" false
    !Relocate.chaos_skip_rebase;
  Alcotest.(check bool) "detector bus released" false (Ufork_util.Hb.on ());
  Alcotest.(check bool) "next default run unchanged" true (row () = before);
  E.with_plan capflow (storm copa)

(* The unscoped profile switch changes that one field and empties the
   profiled machines; the trace sink's machines and the causal graph of
   the enclosing plan stay, and leaving the plan undoes the switch. *)
let test_set_collect_profiles_keeps_the_rest () =
  let path = Filename.temp_file "ufork_plan" ".jsonl" in
  let lines () = In_channel.with_open_bin path In_channel.input_all in
  let plan =
    {
      E.Run.default with
      trace_out = Some (path, E.Jsonl);
      detectors = [ E.Run.Causal ];
    }
  in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  E.with_plan plan (fun () ->
      ignore (E.hello_run copa);
      let one = lines () and g = E.causal_graph () in
      E.set_collect_profiles true;
      Alcotest.(check bool) "plan switched" true
        (E.current_plan () = { plan with collect_profiles = true });
      Alcotest.(check bool) "causal graph kept" true (E.causal_graph () == g);
      ignore (E.hello_run copa);
      Alcotest.(check string) "trace sink keeps the first machine"
        (one ^ one) (lines ());
      Alcotest.(check int) "one machine profiled" 1
        (List.length (E.profiled_traces ()));
      E.set_collect_profiles true;
      Alcotest.(check int) "profiled machines emptied" 0
        (List.length (E.profiled_traces ())));
  Alcotest.(check bool) "switch undone with the plan" true
    (E.current_plan () = E.Run.default)

let suite =
  [
    ("invariant catalogue", `Quick, test_catalogue);
    ("chaos covers catalogue", `Quick, test_scenarios_cover_catalogue);
    ("clean machine", `Quick, test_clean_machine);
    ("clean protocol", `Quick, test_clean_protocol);
  ]
  @ List.map scenario_case Chaos.scenarios
  @ [
      ("chaos controls fail with exactly their invariant", `Quick,
       test_controls_fail_exactly);
      ("a run plan leaves nothing armed", `Quick,
       test_plan_leaves_nothing_armed);
      ("set_collect_profiles keeps the rest of the plan", `Quick,
       test_set_collect_profiles_keeps_the_rest);
      ("clean experiment runs", `Quick, test_clean_runs);
    ]
