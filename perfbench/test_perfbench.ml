(* The benchmark's own tests: its workloads reproduce the experiment
   functions bit for bit, its wrapper changes nothing it measures, its
   host-time buckets tile the run, its cross-checks hold, it counts
   failures instead of crashing, and its paper cells apply to the sizes
   it runs. *)

open Perfbench
module E = Ufork_workload.Experiments
module Trace = Ufork_sim.Trace
module Strategy = Ufork_core.Strategy
module System = Ufork_core.System
module Os = Ufork_core.Os
module Api = Ufork_sas.Api
module Image = Ufork_sas.Image
module W = Workloads

let ufork = E.Ufork Strategy.Copa
let run ?(detail = false) ?heap_bytes size w = W.run_one ~detail ~seed:0 ?heap_bytes size w

let value (o : W.outcome) group name =
  let l = match group with `E2e -> o.W.e2e | `Extra -> o.W.extra | `Layers -> o.W.layers in
  match List.find_opt (fun (n, _, _) -> n = name) l with
  | Some (_, v, _) -> v
  | None -> Alcotest.failf "%s: no metric %s" o.W.workload name

let measured (o : W.outcome) key =
  match List.assoc_opt key o.W.measured with
  | Some v -> v
  | None -> Alcotest.failf "%s: nothing measured under %s" o.W.workload key

let no_errors (o : W.outcome) =
  Alcotest.(check (list string)) (o.W.workload ^ " checks") [] o.W.errors

(* Run an experiment function with its traces kept, returning the result
   and the summed event count and charged cycles of its machines. *)
let with_traces f =
  E.set_collect_profiles true;
  Fun.protect
    ~finally:(fun () -> E.set_collect_profiles false)
    (fun () ->
      let r = f () in
      let trs = E.profiled_traces () in
      ( r,
        List.fold_left (fun a t -> a + Trace.emits t) 0 trs,
        List.fold_left (fun a t -> Int64.add a (Trace.total_charged t)) 0L trs ))

let same_counts (o : W.outcome) (emits, charged) =
  Alcotest.(check int) "Trace.emits" emits o.W.sim_events;
  Alcotest.(check int64) "Trace.total_charged" charged o.W.sim_charged

let exactly = Alcotest.float 0.

(* {1 Driver fidelity} *)

let fidelity_storm () =
  let size = W.full in
  let row, emits, charged =
    with_traces (fun () ->
        E.fork_storm_run ufork ~cores:size.W.storm_cores ~iters:size.W.storm_iters ())
  in
  let o = run size "fork-storm" in
  no_errors o;
  Alcotest.check exactly "forks/s" row.E.forks_per_s (value o `Extra "forks_per_s");
  Alcotest.(check string) "BENCH_smp.json 512-core point" "470251.9"
    (Printf.sprintf "%.1f" (value o `Extra "forks_per_s"));
  same_counts o (emits, charged)

let fidelity_redis () =
  (* 10 MB keeps the test quick; the workload is size-parametric. *)
  let size = { W.small with W.redis_entries = 100 } in
  let row, emits, charged =
    with_traces (fun () ->
        E.redis_run ufork ~entries:size.W.redis_entries
          ~value_len:size.W.redis_value_len ~db_label:"10 MB")
  in
  let o = run size "redis-bgsave" in
  no_errors o;
  Alcotest.(check bool) "experiment dump ok" true row.E.dump_ok;
  Alcotest.check exactly "save_ms" row.E.save_ms (measured o "save_ms");
  Alcotest.check exactly "fork_us" row.E.fork_us (measured o "fork_us");
  Alcotest.check exactly "child_mb" row.E.child_mb (measured o "child_mb");
  Alcotest.check exactly "e2e fork_us" row.E.fork_us (value o `E2e "fork_us");
  same_counts o (emits, charged)

let fidelity_fig8 () =
  let rows, emits, charged = with_traces E.fig8 in
  let o = run { W.full with W.trios = 1 } "hello-trio" in
  no_errors o;
  List.iter
    (fun (r : E.hello_row) ->
      let label = E.system_label r.E.system in
      Alcotest.check exactly ("fork_us " ^ label) r.E.fork_latency_us
        (measured o ("fork_us/" ^ label));
      Alcotest.check exactly ("child_mb " ^ label) r.E.child_memory_mb
        (measured o ("child_mb/" ^ label)))
    rows;
  same_counts o (emits, charged)

let fidelity_unixbench () =
  let size = W.full in
  let row, emits, charged =
    with_traces (fun () ->
        E.unixbench_run ufork ~spawn_iters:size.W.spawn_iters
          ~context1_iters:size.W.context1_iters)
  in
  let o = run size "spawn-context1" in
  no_errors o;
  Alcotest.check exactly "spawn_ms" row.E.spawn_ms (measured o "spawn_ms");
  Alcotest.check exactly "context1_ms" row.E.context1_ms (measured o "context1_ms");
  same_counts o (emits, charged);
  Alcotest.(check bool) "paper cells apply at Fig. 9 size" true
    (List.exists (fun (n, _, _) -> n = "paper_err_pct") o.W.extra)

(* {1 Wrapper transparency and tiling} *)

let transparency w () =
  let plain = run W.small w and traced = run ~detail:true W.small w in
  no_errors plain;
  no_errors traced;
  let sim (o : W.outcome) = (o.W.e2e, o.W.extra, o.W.measured) in
  Alcotest.(check bool) "simulated results" true (sim plain = sim traced);
  Alcotest.(check int) "events" plain.W.sim_events traced.W.sim_events;
  Alcotest.(check int64) "charged" plain.W.sim_charged traced.W.sim_charged;
  Alcotest.(check int) "attempted" plain.W.attempted traced.W.attempted;
  (* Phases + Api self time + application time + the unattributed
     remainder = the traced host time. *)
  let v = value traced `Layers in
  let remainder = v "host.unattributed_ms" in
  Alcotest.(check bool) "remainder never negative" true (remainder >= 0.);
  let api =
    List.fold_left
      (fun a b -> a +. (v (Hostclock.names.(b) ^ ".host_us") /. 1e3))
      0. Hostclock.api_classes
  in
  let tiled =
    v "system.boot.host_ms" +. v "system.start.host_ms" +. v "checker.sweep.host_ms"
    +. v "trace.audit.host_ms" +. v "rdb.verify.host_ms" +. api
    +. (v "app.host_s" *. 1e3) +. remainder
  in
  Alcotest.(check (float 1e-6)) "tiling" (v "traced.host_s" *. 1e3) tiled;
  Alcotest.(check (float 0.)) "every fork paired with its span"
    (v "api.fork.calls") (v "check.forks_paired")

let clock_partition () =
  let c = Hostclock.create () in
  let busy () = ignore (Sys.opaque_identity (List.init 1000 Fun.id)) in
  Hostclock.phase c Hostclock.boot busy;
  Hostclock.phase c Hostclock.engine (fun () ->
      ignore (Hostclock.switch c Hostclock.app);
      busy ();
      Hostclock.call c Hostclock.api_fork busy;
      ignore (Hostclock.switch c Hostclock.pending);
      busy ();
      Hostclock.call c Hostclock.api_wait busy);
  Hostclock.stop c;
  Alcotest.(check int) "buckets sum to elapsed" (Hostclock.elapsed_ns c)
    (Hostclock.total_ns c);
  Alcotest.(check int) "fork calls" 1 (Hostclock.calls c Hostclock.api_fork)

(* {1 Failure accounting} *)

let enomem_fork () =
  (* A fork that returns ENOMEM is one attempted, one failed operation;
     the application sees the error and carries on. *)
  let os = Os.boot () in
  let sys = Os.system os in
  let p = Wrap.create (Hostclock.create ()) in
  let refused = ref false in
  ignore
    (System.start sys ~image:Image.hello (fun real ->
         let api = { real with Api.fork = (fun _ -> raise (Api.Sys_error "ENOMEM")) } in
         Wrap.main p
           (fun api ->
             match api.Api.fork (fun c -> c.Api.exit 0) with
             | _ -> ()
             | exception Api.Sys_error _ -> refused := true)
           api));
  System.run sys;
  Alcotest.(check bool) "caller saw ENOMEM" true !refused;
  Alcotest.(check int) "attempted" 1 p.Wrap.forks;
  Alcotest.(check int) "failed" 1 (Wrap.failures p)

let undersized_heap () =
  (* 20 × 100 KB fit in a 2.1 MB static heap, but the BGSAVE child's
     64 KB output buffer does not: its malloc fails with ENOMEM, the
     child exits non-zero and no dump appears. The benchmark counts both
     failures and its audits still pass. *)
  let o = run ~heap_bytes:2_100_000 W.small "redis-bgsave" in
  no_errors o;
  Alcotest.(check int) "attempted" 2 o.W.attempted;
  Alcotest.(check int) "failed" 2 o.W.failed;
  let line = Report.of_outcome o in
  Alcotest.(check bool) "reported" true
    (let sub = "\"attempted\":2,\"failed\":2" in
     let n = String.length sub in
     let rec find i = i + n <= String.length line && (String.sub line i n = sub || find (i + 1)) in
     find 0)

(* {1 Paper reference table} *)

let reference_sizes () =
  List.iter
    (fun (c : Reference.cell) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s %s (%s) applies to the benchmark size" c.Reference.workload
           c.Reference.key c.Reference.figure)
        true
        (Reference.applies c ~size:(W.size_params W.full c.Reference.workload)))
    Reference.cells;
  Alcotest.(check bool) "cells do not apply at test sizes" false
    (List.exists
       (fun (c : Reference.cell) ->
         c.Reference.workload <> "hello-trio"
         && Reference.applies c ~size:(W.size_params W.small c.Reference.workload))
       Reference.cells)

let () =
  Alcotest.run "perfbench"
    [
      ( "fidelity",
        [
          Alcotest.test_case "fork-storm = fork_storm_run at 512x12" `Quick fidelity_storm;
          Alcotest.test_case "redis-bgsave = redis_run" `Quick fidelity_redis;
          Alcotest.test_case "hello-trio = fig8" `Quick fidelity_fig8;
          Alcotest.test_case "spawn-context1 = unixbench_run" `Quick fidelity_unixbench;
        ] );
      ( "transparency",
        Alcotest.test_case "clock buckets partition elapsed time" `Quick clock_partition
        :: List.map
             (fun w -> Alcotest.test_case (w ^ " traced = untraced, tiled") `Quick (transparency w))
             W.names );
      ( "failures",
        [
          Alcotest.test_case "fork ENOMEM counted" `Quick enomem_fork;
          Alcotest.test_case "undersized heap reports failed ops" `Quick undersized_heap;
        ] );
      ("reference", [ Alcotest.test_case "cells match workload sizes" `Quick reference_sizes ]);
    ]
