(* Linter precision tests, mirroring the chaos methodology of
   test_analysis: every rule in the catalogue is exercised by a fixture
   that seeds exactly one violation, and the false-positive controls
   (banned names in comments/strings, innocent aliases, discharged
   Hashtbl traversals) must lint clean. Fixtures live in
   test/lint_fixtures/ (a data-only dir: dune never compiles them) and
   are linted under a synthetic lib/ path, because rule applicability is
   path-scoped. test/lint/ pins every fixture's full findings through
   `ufork_sim lint`. *)

module Rules = Ufork_lint_core.Lint_rules
module Lint = Ufork_lint_core.Lint_engine
module Lockdep = Ufork_lint_core.Lockdep
module Capflow = Ufork_lint_core.Capflow
module Exports = Ufork_lint_core.Exports

let fixture_dir =
  (* cwd is test/ under [dune runtest], the project root under
     [dune exec]. *)
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else Filename.concat "test" "lint_fixtures"

let read_file file = Lint.read_file (Filename.concat fixture_dir file)

let ids fs = List.map (fun (f : Lint.finding) -> f.Lint.rule.Rules.id) fs

let program ?(path = "lib/workload/fixture.ml") file =
  Lint.of_sources [ (path, read_file file) ]

let lint ?path file = Lint.check (program ?path file)
let lockdep_lint ?path file = Lockdep.check (program ?path file)
let capflow_lint ?path file = Capflow.check (program ?path file)

(* One seeded violation per rule id, caught as exactly that rule. *)
let seeded =
  [
    ("fixture_d1.ml", "D1");
    ("fixture_d2.ml", "D2");
    ("fixture_copy_d2.ml", "D2");
    ("fixture_d3.ml", "D3");
    ("fixture_d4.ml", "D4");
    ("fixture_d5.ml", "D5");
    ("fixture_d6.ml", "D6");
    ("fixture_d7.ml", "D7");
    ("fixture_d8.ml", "D8");
    ("fixture_d9.ml", "D9");
    ("fixture_d11.ml", "D11");
    ("fixture_d12.ml", "D12");
    ("fixture_alias_d1.ml", "D1");
    ("fixture_open_d5.ml", "D5");
    ("fixture_e0.ml", "E0");
  ]

(* D10 comes from the whole-program lock-order analysis, not the
   per-file rule engine, so its fixtures run through Lockdep. *)
let lockdep_seeded =
  [
    ("fixture_d10.ml", "D10");
    ("fixture_alias_d10.ml", "D10");
    ("fixture_shard_d10.ml", "D10");
  ]

(* D13 likewise comes from a whole-program analysis (Capflow): a heap
   escape, an alias-routed escape, a discarded relocation, root
   authority in app code, and a stale discharge annotation. *)
let capflow_seeded =
  [
    ("fixture_d13.ml", "D13");
    ("fixture_alias_d13.ml", "D13");
    ("fixture_discard_d13.ml", "D13");
    ("fixture_root_d13.ml", "D13");
    ("fixture_stale_d13.ml", "D13");
  ]

(* D14 reads several files at once, so its cases are small trees built
   with [Lint.of_sources]: lib/workload/m.mli exports, m.ml defines, and
   the other files reference. Each seeds exactly one finding, whose
   message names the case; m.ml's own call of [M.other] never counts. *)
let m_ml = "let other x = x + 1\nlet used x = M.other x\n"

let d14_tree ?(intf = "val used : int -> int\nval other : int -> int\n")
    callers =
  Lint.of_sources
    (("lib/workload/m.mli", intf) :: ("lib/workload/m.ml", m_ml) :: callers)

let exports_seeded =
  let bin_calls_used = ("bin/main.ml", "let () = ignore (M.used 1)") in
  let seam_intf =
    "val used : int -> int\nval other : int -> int [@@ufork.test_seam]\n"
  in
  [
    ( "nothing outside its module",
      d14_tree [ bin_calls_used; ("lib/workload/n.ml", "let f = M.used") ] );
    ( "only test/ references it",
      d14_tree
        [
          bin_calls_used;
          ("test/test_m.ml", "let () = ignore (Ufork_workload.M.other 1)");
        ] );
    ( "examples/demo.ml references it: drop the mark",
      d14_tree ~intf:seam_intf
        [
          bin_calls_used;
          ("examples/demo.ml", "let () = ignore (M.other 1)");
          ("test/test_m.ml", "let () = ignore (M.other 1)");
        ] );
    ("no test references it", d14_tree ~intf:seam_intf [ bin_calls_used ]);
  ]

let test_seeded () =
  List.iter
    (fun (file, expected) ->
      Alcotest.(check (list string)) file [ expected ] (ids (lint file)))
    seeded

let test_lockdep_seeded () =
  List.iter
    (fun (file, expected) ->
      Alcotest.(check (list string))
        file [ expected ]
        (ids (lockdep_lint file)))
    lockdep_seeded

let test_capflow_seeded () =
  List.iter
    (fun (file, expected) ->
      Alcotest.(check (list string))
        file [ expected ]
        (ids (capflow_lint file)))
    capflow_seeded

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_exports_seeded () =
  List.iter
    (fun (why, prog) ->
      match Exports.check prog with
      | [ f ] ->
          Alcotest.(check string) why "D14" f.Lint.rule.Rules.id;
          Alcotest.(check bool) why true (contains ~needle:why f.Lint.message)
      | fs -> Alcotest.failf "%s: %d findings" why (List.length fs))
    exports_seeded

(* Two libraries each with a [Lockdep] module, as lib/analysis and
   tools/lint have: a reference resolves by the library's wrapper
   module, read from each directory's dune file. lib's [check] is
   referenced only as the tools module's [check] — qualified from bin/
   and test/, bare from inside tools/lint — so it is still unused;
   lib's [used] is referenced only from tools/lint, qualified. *)
let same_named_modules =
  Lint.of_sources
    [
      ("lib/analysis/dune", "(library\n (name ufork_analysis)) ; lib\n");
      ("lib/analysis/lockdep.mli", "val check : int -> int\nval used : int -> int\n");
      ("lib/analysis/lockdep.ml", "let check x = x\nlet used x = x\n");
      ("tools/lint/dune", "(library (name ufork_lint_core) (modules lockdep user))");
      ("tools/lint/lockdep.ml", "let check x = x + 1\n");
      ( "tools/lint/user.ml",
        "let a = Lockdep.check 1\nlet b = Ufork_analysis.Lockdep.used 2\n" );
      ("bin/main.ml", "let () = ignore (Ufork_lint_core.Lockdep.check 3)");
      ( "test/test_l.ml",
        "module L = Ufork_lint_core.Lockdep\nlet () = ignore (L.check 4)" );
    ]

let test_exports_by_library () =
  match Exports.check same_named_modules with
  | [ f ] ->
      Alcotest.(check string) "file" "lib/analysis/lockdep.mli" f.Lint.file;
      Alcotest.(check bool)
        "lib's check, unused" true
        (contains ~needle:"Lockdep.check is exported, but nothing outside"
           f.Lint.message)
  | fs ->
      Alcotest.failf "expected one finding, got %d: %s" (List.length fs)
        (String.concat "; " (List.map (fun (f : Lint.finding) -> f.Lint.message) fs))

let test_rule_coverage () =
  (* Every catalogue rule has a seeding fixture: the fixture suite is the
     linter's coverage map. *)
  Alcotest.(check (list string))
    "one fixture per rule"
    (List.sort compare
       (List.map (fun (r : Rules.t) -> r.Rules.id) Rules.all))
    (List.sort_uniq compare
       (List.map snd (seeded @ lockdep_seeded @ capflow_seeded)
       @ List.map (fun _ -> "D14") exports_seeded)
    |> List.filter (fun id -> id <> "E0"))

let test_clean_controls () =
  List.iter
    (fun file ->
      Alcotest.(check (list string)) file [] (ids (lint file)))
    [ "fixture_clean_comment.ml"; "fixture_clean_alias.ml";
      "fixture_clean_d6.ml"; "fixture_clean_d9.ml";
      "fixture_clean_d2.ml"; "fixture_clean_d11.ml";
      "fixture_clean_d12.ml" ];
  (* Ordered nesting, ascending shards and an annotation-declared custom
     pair satisfy the lock-order analysis. *)
  Alcotest.(check (list string))
    "fixture_clean_d10.ml" []
    (ids (lockdep_lint "fixture_clean_d10.ml"));
  (* Page stores, relocations that flow back, untainted heap traffic and
     a discharge that really shields satisfy the escape analysis. *)
  Alcotest.(check (list string))
    "fixture_clean_d13.ml" []
    (ids (capflow_lint "fixture_clean_d13.ml"));
  (* Every export reached from outside its module — directly, through a
     module alias, a local module alias or an open, from examples/ — and
     a marked seam only test/ calls satisfy the unused-export rule. *)
  Alcotest.(check (list string))
    "D14 tree" []
    (ids
       (Exports.check
          (d14_tree
             ~intf:
               "val used : int -> int\nval other : int -> int\n\
                val third : int -> int\nval fourth : int -> int\n\
                val seam : int -> int [@@ufork.test_seam]\n"
             [
               ( "bin/main.ml",
                 "module W = Ufork_workload.M\n\
                  let a = W.used 1\n\
                  let b = let module L = Ufork_workload.M in L.other 1\n\
                  open Ufork_workload.M\n\
                  let c = third 1\n" );
               ("examples/demo.ml", "let d = Ufork_workload.M.fourth 1");
               ("test/test_m.ml", "let e = M.seam 1");
             ])))

let test_exemptions () =
  (* The same source is innocent in the module that owns the mechanism:
     path scoping, not name matching, is what makes the rule precise. *)
  let check_clean path file =
    Alcotest.(check (list string))
      (Printf.sprintf "%s under %s" file path)
      [] (ids (lint ~path file))
  in
  check_clean "lib/sim/scheduler.ml" "fixture_d1.ml";
  check_clean "lib/mem/page.ml" "fixture_d2.ml";
  check_clean "lib/mem/vas.ml" "fixture_copy_d2.ml";
  check_clean "lib/core/memops.ml" "fixture_copy_d2.ml";
  check_clean "lib/core/fork_spine.ml" "fixture_d3.ml";
  check_clean "lib/sim/trace.ml" "fixture_d4.ml";
  check_clean "lib/sas/kernel.ml" "fixture_d9.ml";
  check_clean "lib/sim/meter.ml" "fixture_d11.ml";
  check_clean "lib/sim/sync.ml" "fixture_d12.ml";
  check_clean "lib/mem/phys.ml" "fixture_d12.ml";
  (* The capability module itself is D13's mechanism owner... *)
  Alcotest.(check (list string))
    "fixture_d13.ml under lib/cheri/capability.ml" []
    (ids (capflow_lint ~path:"lib/cheri/capability.ml" "fixture_d13.ml"));
  (* ...and root authority below the app layers is the kernel's job. *)
  Alcotest.(check (list string))
    "fixture_root_d13.ml under lib/sas/kernel.ml" []
    (ids (capflow_lint ~path:"lib/sas/kernel.ml" "fixture_root_d13.ml"));
  (* ...and test code is out of scope entirely. *)
  check_clean "test/test_sim.ml" "fixture_d5.ml"

let test_finding_location () =
  (* Findings carry the file and a 1-based line number pointing at the
     banned identifier, not at the top of the file. *)
  match lint ~path:"lib/workload/fx.ml" "fixture_d1.ml" with
  | [ f ] ->
      Alcotest.(check string) "file" "lib/workload/fx.ml" f.Lint.file;
      Alcotest.(check int) "line" 4 f.Lint.line
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)

let test_json () =
  let fs = lint "fixture_d8.ml" in
  let json = Lint.to_json fs in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "json contains %s" needle)
        true (contains ~needle json))
    [ {|"id":"D8"|}; {|"name":"no-obj"|}; {|"severity":"error"|}; {|"line":4|} ]

let test_lock_graph () =
  (* The exported graph names the hierarchy and the declared custom
     order from the clean fixture, in both DOT and JSON. *)
  let g = Lockdep.graph (program "fixture_clean_d10.ml") in
  let dot = Lockdep.to_dot g and json = Lockdep.to_json g in
  List.iter
    (fun (needle, hay, label) ->
      Alcotest.(check bool) label true (contains ~needle hay))
    [
      ("\"lock.uproc_table\" -> \"lock.fd_tables\"", dot, "dot inferred");
      ("label=\"declared\"", dot, "dot declared edge");
      ("\"lock.net.listener\"", dot, "dot custom node");
      ( {|{"src":"lock.net.listener","dst":"lock.net.conn","kind":"declared"}|},
        json, "json declared edge" );
      ({|"kind":"hierarchy"|}, json, "json hierarchy edge");
    ]

(* Calls resolve by file, not by file basename: two modules may share a
   name (lib/analysis/lockdep.ml and tools/lint/lockdep.ml do). *)

let test_d13_keys_by_file () =
  (* Both [M.f] share the key (M, f) when keyed by basename: their
     summaries overwrite each other every round and the fixpoint never
     settles. Each caller reaches the [M] in its own directory. *)
  let sources =
    [
      ("lib/sas/m.ml", "let f () = Capability.root ()");
      ("lib/apps/m.ml", "let f () = 0");
      ("lib/apps/user.ml", "let g tbl = Hashtbl.add tbl 0 (M.f ())");
      ("lib/sas/user.ml", "let h tbl = Hashtbl.add tbl 0 (M.f ())");
    ]
  in
  Alcotest.(check (list (pair string int)))
    "only lib/sas's M.f returns a capability"
    [ ("lib/sas/user.ml", 1) ]
    (List.map
       (fun (f : Lint.finding) -> (f.Lint.file, f.Lint.line))
       (Capflow.check (Lint.of_sources sources)))

let test_d10_qualified_by_file () =
  let m_files =
    [
      ("lib/sas/m.ml", "let f k = Kernel.with_uproc_table k (fun () -> ())");
      ("lib/apps/m.ml", "let f () = ()");
    ]
  in
  let caller = "let g k = Kernel.with_stats k (fun () -> M.f k)" in
  let d10 user =
    ids (Lockdep.check (Lint.of_sources (m_files @ [ (user, caller) ])))
  in
  Alcotest.(check (list string)) "lib/apps/user.ml calls lib/apps/m.ml" []
    (d10 "lib/apps/user.ml");
  Alcotest.(check (list string)) "lib/sas/user.ml calls lib/sas/m.ml"
    [ "D10" ] (d10 "lib/sas/user.ml");
  Alcotest.(check (list string)) "bin/user.ml: ambiguous, unresolved" []
    (d10 "bin/user.ml")

let test_d10_bare_name_is_local () =
  (* A bare call names the caller's own binding: a local function named
     like a kernel helper takes no lock, while kernel.ml's own bare
     helper calls do. *)
  let d10 path source =
    ids (Lockdep.check (Lint.of_sources [ (path, source) ]))
  in
  Alcotest.(check (list string)) "lib/apps/x.ml" []
    (d10 "lib/apps/x.ml"
       "let with_uproc_table f = f ()\n\
        let g k = Kernel.with_stats k (fun () -> with_uproc_table (fun () \
        -> ()))\n");
  Alcotest.(check (list string)) "lib/sas/kernel.ml" [ "D10" ]
    (d10 "lib/sas/kernel.ml"
       "let with_stats t f = f ()\n\
        let with_uproc_table t f = f ()\n\
        let g t = with_stats t (fun () -> with_uproc_table t (fun () -> \
        ()))\n")

let suite =
  [
    Alcotest.test_case "seeded violations, one per rule" `Quick test_seeded;
    Alcotest.test_case "lock-order fixtures seed exactly D10" `Quick
      test_lockdep_seeded;
    Alcotest.test_case "cap-escape fixtures seed exactly D13" `Quick
      test_capflow_seeded;
    Alcotest.test_case "unused-export trees seed exactly D14" `Quick
      test_exports_seeded;
    Alcotest.test_case "unused export behind a same-named library module"
      `Quick test_exports_by_library;
    Alcotest.test_case "lock-order graph export" `Quick test_lock_graph;
    Alcotest.test_case "fixtures cover the catalogue" `Quick
      test_rule_coverage;
    Alcotest.test_case "false-positive controls lint clean" `Quick
      test_clean_controls;
    Alcotest.test_case "mechanism-owner paths are exempt" `Quick
      test_exemptions;
    Alcotest.test_case "findings carry precise locations" `Quick
      test_finding_location;
    Alcotest.test_case "json export" `Quick test_json;
    Alcotest.test_case "D13 summaries key by file" `Quick
      test_d13_keys_by_file;
    Alcotest.test_case "D10 resolves M.f by file" `Quick
      test_d10_qualified_by_file;
    Alcotest.test_case "D10 bare names stay in their file" `Quick
      test_d10_bare_name_is_local;
  ]
