(* CLI driver: run individual experiments of the μFork reproduction with
   custom parameters.

     dune exec bin/ufork_sim.exe -- redis --system ufork-copa --mb 10
     dune exec bin/ufork_sim.exe -- hello
     dune exec bin/ufork_sim.exe -- faas --cores 3 --window 0.5
     dune exec bin/ufork_sim.exe -- nginx --workers 3
     dune exec bin/ufork_sim.exe -- unixbench
     dune exec bin/ufork_sim.exe -- meter   # mechanism-event audit *)

open Cmdliner
module Strategy = Ufork_core.Strategy
module E = Ufork_workload.Experiments
module Units = Ufork_util.Units
module Chaos = Ufork_analysis.Chaos
module Invariant = Ufork_analysis.Invariant

let system_conv =
  let parse = function
    | "ufork" | "ufork-copa" -> Ok (E.Ufork Strategy.Copa)
    | "ufork-coa" -> Ok (E.Ufork Strategy.Coa)
    | "ufork-full" -> Ok (E.Ufork Strategy.Full_copy)
    | "ufork-toctou" -> Ok (E.Ufork_toctou Strategy.Copa)
    | "cheribsd" -> Ok E.Cheribsd
    | "nephele" -> Ok E.Nephele
    | "linux" -> Ok E.Linux_ref
    | s -> Error (`Msg (Printf.sprintf "unknown system %S" s))
  in
  let print ppf s = Format.pp_print_string ppf (E.system_label s) in
  Arg.conv (parse, print)

let system_arg =
  Arg.(
    value
    & opt system_conv (E.Ufork Strategy.Copa)
    & info [ "system"; "s" ] ~docv:"SYSTEM"
        ~doc:
          "OS to run on: ufork-copa (default), ufork-coa, ufork-full, \
           ufork-toctou, cheribsd, nephele, linux.")

let window_arg =
  Arg.(
    value & opt float 1.0
    & info [ "window"; "w" ] ~docv:"SECONDS"
        ~doc:"Simulated measurement window in seconds.")

(* redis *)
let redis_cmd =
  let mb =
    Arg.(
      value & opt int 10
      & info [ "mb" ] ~docv:"MB" ~doc:"Database size in MB (100 KB entries).")
  in
  let run system mb =
    let value_len = 100 * 1024 in
    let entries = max 1 (mb * 1_000_000 / value_len) in
    let r =
      E.redis_run system ~entries ~value_len
        ~db_label:(Printf.sprintf "%d MB" mb)
    in
    Printf.printf
      "%s, %d MB database:\n\
      \  background save : %.2f ms\n\
      \  fork latency    : %.1f us\n\
      \  snapshot child  : %.2f MB\n\
      \  dump verified   : %b\n"
      (E.system_label system) mb r.E.save_ms r.E.fork_us r.E.child_mb
      r.E.dump_ok
  in
  Cmd.v
    (Cmd.info "redis" ~doc:"Redis BGSAVE experiment (Figs. 3-5)")
    Term.(const run $ system_arg $ mb)

(* hello *)
let hello_cmd =
  let run system =
    let r = E.hello_run system in
    Printf.printf "%s: fork %.1f us, child memory %.2f MB\n"
      (E.system_label r.E.system) r.E.fork_latency_us r.E.child_memory_mb
  in
  Cmd.v
    (Cmd.info "hello" ~doc:"hello-world fork microbenchmark (Fig. 8)")
    Term.(const run $ system_arg)

(* faas *)
let faas_cmd =
  let cores =
    Arg.(
      value & opt int 3
      & info [ "cores" ] ~docv:"N" ~doc:"Worker cores (coordinator extra).")
  in
  let workload =
    Arg.(
      value
      & opt (enum [ ("float", `Float); ("matmul", `Matmul); ("linpack", `Linpack) ]) `Float
      & info [ "workload" ] ~docv:"KIND"
          ~doc:"FunctionBench kernel: float (paper's float_operation), \
                matmul, or linpack.")
  in
  let run system cores window workload =
    let module Mpy = Ufork_apps.Mpy in
    let module Faas = Ufork_apps.Faas in
    let module Os = Ufork_core.Os in
    let module Mono = Ufork_baselines.Monolithic in
    let module Image = Ufork_sas.Image in
    let program, locals, name =
      match workload with
      | `Float -> (Mpy.float_operation ~n:3650, 16, "float_operation")
      | `Matmul -> (Mpy.matmul ~n:10, Mpy.matmul_locals ~n:10, "matmul")
      | `Linpack -> (Mpy.linpack ~n:24, Mpy.linpack_locals ~n:24, "linpack")
    in
    ignore locals;
    (* The coordinator path uses the default locals via Faas; for the
       non-default kernels run through a dedicated loop so locals fit. *)
    match workload with
    | `Float ->
        let r = E.faas_run system ~worker_cores:cores ~window_s:window () in
        Printf.printf "%s, %d worker cores, %s: %.0f functions/s (%d completed)\n"
          (E.system_label system) cores name r.E.throughput_per_s r.E.completed
    | `Matmul | `Linpack ->
        let window_cycles = Units.cycles_of_s window in
        let completed = ref 0 in
        let main api =
          Ufork_apps.Mpy.zygote_init api ~modules:24;
          let t0 = api.Ufork_sas.Api.now () in
          let deadline = Int64.add t0 window_cycles in
          let outstanding = ref 0 in
          while api.Ufork_sas.Api.now () < deadline do
            if !outstanding < cores then begin
              ignore
                (api.Ufork_sas.Api.fork (fun capi ->
                     ignore (Mpy.run capi ~locals program);
                     capi.Ufork_sas.Api.exit 0));
              incr outstanding
            end
            else begin
              let _, st = api.Ufork_sas.Api.wait () in
              decr outstanding;
              if st = 0 && api.Ufork_sas.Api.now () <= deadline then
                incr completed
            end
          done;
          while !outstanding > 0 do
            ignore (api.Ufork_sas.Api.wait ());
            decr outstanding
          done
        in
        (match system with
        | E.Ufork strategy | E.Ufork_toctou strategy ->
            let os = Os.boot ~cores:(cores + 1) ~strategy () in
            ignore (Os.start os ~affinity:0 ~image:Image.micropython main);
            Os.run os
        | E.Cheribsd | E.Linux_ref ->
            let os = Mono.boot ~cores:(cores + 1) () in
            ignore (Mono.start os ~affinity:0 ~image:Image.micropython main);
            Mono.run os
        | E.Nephele ->
            let module Vm = Ufork_baselines.Vmclone in
            let os = Vm.boot ~cores:(cores + 1) () in
            ignore (Vm.start os ~affinity:0 ~image:Image.micropython main);
            Vm.run os);
        Printf.printf "%s, %d worker cores, %s: %.0f functions/s\n"
          (E.system_label system) cores name
          (float_of_int !completed /. window)
  in
  Cmd.v
    (Cmd.info "faas" ~doc:"Zygote FaaS throughput (Fig. 6)")
    Term.(const run $ system_arg $ cores $ window_arg $ workload)

(* nginx *)
let nginx_cmd =
  let workers =
    Arg.(value & opt int 3 & info [ "workers" ] ~docv:"N" ~doc:"Workers.")
  in
  let cores =
    Arg.(value & opt int 1 & info [ "cores" ] ~docv:"N" ~doc:"Cores.")
  in
  let run system workers cores window =
    let r = E.nginx_run system ~cores ~workers ~window_s:window () in
    Printf.printf "%s, %d core(s), %d worker(s): %.0f req/s\n"
      (E.system_label system) cores workers r.E.requests_per_s
  in
  Cmd.v
    (Cmd.info "nginx" ~doc:"Nginx multi-worker throughput (Fig. 7)")
    Term.(const run $ system_arg $ workers $ cores $ window_arg)

(* unixbench *)
let unixbench_cmd =
  let run () =
    List.iter
      (fun (r : E.unixbench_row) ->
        Printf.printf "%-12s Spawn(1000): %.1f ms   Context1(100k): %.1f ms\n"
          (E.system_label r.E.system) r.E.spawn_ms r.E.context1_ms)
      (E.fig9 ())
  in
  Cmd.v
    (Cmd.info "unixbench" ~doc:"Unixbench Spawn and Context1 (Fig. 9)")
    Term.(const run $ const ())

(* meter: run a Redis save and dump every mechanism counter. *)
let meter_cmd =
  let run system =
    let module Kernel = Ufork_sas.Kernel in
    let module Os = Ufork_core.Os in
    let module Mono = Ufork_baselines.Monolithic in
    let module Kvstore = Ufork_apps.Kvstore in
    let module Rdb = Ufork_apps.Rdb in
    let module Keyspace = Ufork_workload.Keyspace in
    let entries = 50 and value_len = 100 * 1024 in
    let image =
      Ufork_sas.Image.redis ~heap_bytes:(entries * value_len * 137 / 100)
    in
    let main api =
      let store = Kvstore.create api ~buckets:1024 () in
      Keyspace.populate store ~entries ~value_len ~seed:1L;
      ignore (Rdb.bgsave api store ~path:"/dump.rdb")
    in
    let kernel =
      match system with
      | E.Ufork strategy | E.Ufork_toctou strategy ->
          let os = Os.boot ~strategy () in
          ignore (Os.start os ~image main);
          Os.run os;
          Os.kernel os
      | E.Cheribsd | E.Linux_ref ->
          let os = Mono.boot () in
          ignore (Mono.start os ~image main);
          Mono.run os;
          Mono.kernel os
      | E.Nephele ->
          let module Vm = Ufork_baselines.Vmclone in
          let os = Vm.boot () in
          ignore (Vm.start os ~image main);
          Vm.run os;
          Vm.kernel os
    in
    Printf.printf "Mechanism events for a 5 MB Redis BGSAVE on %s:\n\n"
      (E.system_label system);
    Format.printf "%a@." Kernel.pp_meter kernel
  in
  Cmd.v
    (Cmd.info "meter"
       ~doc:"Audit the mechanism-event counters behind the numbers")
    Term.(const run $ system_arg)

(* Shared by the trace/check/profile/stats front ends: one small run of
   a representative workload, with its one-line result printed. *)
let small_experiment_arg ~verb =
  Arg.(
    value
    & pos 0
        (enum [ ("hello", `Hello); ("redis", `Redis); ("unixbench", `Unixbench) ])
        `Hello
    & info [] ~docv:"EXPERIMENT"
        ~doc:
          (Printf.sprintf "Experiment to %s: hello (default), redis, or \
                           unixbench." verb))

let run_small_experiment system = function
  | `Hello ->
      let r = E.hello_run system in
      Printf.printf "%s: fork %.1f us, child memory %.2f MB\n"
        (E.system_label r.E.system) r.E.fork_latency_us r.E.child_memory_mb
  | `Redis ->
      let entries = 50 and value_len = 100 * 1024 in
      let r = E.redis_run system ~entries ~value_len ~db_label:"5 MB" in
      Printf.printf "%s: save %.2f ms, fork %.1f us\n" (E.system_label system)
        r.E.save_ms r.E.fork_us
  | `Unixbench ->
      let r = E.unixbench_run system ~spawn_iters:50 ~context1_iters:500 in
      Printf.printf "%s: Spawn(50) %.2f ms, Context1(500) %.2f ms\n"
        (E.system_label system) r.E.spawn_ms r.E.context1_ms

(* trace: run an experiment with the event bus recording and write the
   trace out as JSONL (one record per line) or a Chrome about:tracing
   file. *)
let trace_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "trace-out"; "o" ] ~docv:"FILE"
          ~doc:"Write the recorded event trace to $(docv).")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("jsonl", E.Jsonl); ("chrome", E.Chrome) ]) E.Jsonl
      & info [ "format"; "f" ] ~docv:"FMT"
          ~doc:
            "Trace encoding: jsonl (default; one JSON record per line) or \
             chrome (load in chrome://tracing or Perfetto).")
  in
  let experiment = small_experiment_arg ~verb:"trace" in
  let run system out format experiment =
    E.with_plan
      { E.Run.default with trace_out = Some (out, format) }
      (fun () -> run_small_experiment system experiment);
    (* Ring overflow, if any, was reported to stderr by the flush (the
       JSONL header line carries the same count). *)
    Printf.printf "trace written to %s\n" out
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run an experiment with mechanism-event recording on and write \
          the trace to a file")
    Term.(const run $ system_arg $ out $ format $ experiment)

(* The workloads [check] and [explain] run: the small runs above, or the
   concurrent fork storm with one forker per core. *)
let run_checked_workload system ~cores = function
  | `Hello -> ignore (E.hello_run system)
  | `Redis ->
      ignore
        (E.redis_run system ~entries:50 ~value_len:(100 * 1024)
           ~db_label:"5 MB")
  | `Unixbench ->
      ignore (E.unixbench_run system ~spawn_iters:50 ~context1_iters:500)
  | `Storm ->
      let cores = Option.value cores ~default:4 in
      ignore (E.fork_storm_run system ~cores ~iters:4 ())

(* The chaos flags, straight from the injection table: [check] takes the
   controls its detectors judge, [explain] the stall its analysis
   judges. *)
let chaos_arg ~stall =
  Arg.(
    value
    & vflag_all []
        (List.filter_map
           (fun (c : Chaos.control) ->
             if (c.Chaos.violates = Invariant.Lock_stall) = stall then
               Some (c.Chaos.injection, info [ c.Chaos.flag ] ~doc:c.Chaos.doc)
             else None)
           Chaos.injections))

(* check: run a workload with the machine-state sanitizer and trace
   linter armed; exit non-zero on any invariant violation. *)
let check_cmd =
  let experiment =
    Arg.(
      value
      & pos 0
          (enum
             [
               ("hello", `Hello); ("redis", `Redis);
               ("unixbench", `Unixbench); ("storm", `Storm);
             ])
          `Hello
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "Workload to check: hello (default), redis, unixbench, or \
             storm (one concurrent forker per core — the SMP lock-contention \
             workload).")
  in
  let check_cores =
    Arg.(
      value
      & opt (some int) None
      & info [ "cores" ] ~docv:"N"
          ~doc:
            "Core count to boot the checked machine with (default: the \
             workload's own, typically 4). The race job sweeps this to 64.")
  in
  let race =
    Arg.(
      value & flag
      & info [ "race" ]
          ~doc:
            "Also arm the happens-before race detector: flag conflicting \
             shared-state writes with no ordering edge (invariant R1).")
  in
  let lockdep =
    Arg.(
      value & flag
      & info [ "lockdep" ]
          ~doc:
            "Also arm the runtime lock-order checker: build the \
             acquisition graph from the lock instrumentation and flag \
             cycles or descending pt-shard nestings (invariant R2).")
  in
  let capflow =
    Arg.(
      value & flag
      & info [ "capflow" ]
          ~doc:
            "Also arm the capability-provenance taint checker: every \
             tagged capability reachable in a μprocess's pages must carry \
             that μprocess's provenance — rebased or freshly minted for \
             it, never the kernel root's (invariant R4). Checked on the \
             capability store/load stream, at every fork completion, and \
             in the final state sweep.")
  in
  let run system experiment check_cores race lockdep capflow chaos =
    let module Checker = Ufork_analysis.Checker in
    (* Record the event stream even without a trace sink so the protocol
       linter (L1-L5) has something to replay; the state sweep (S1-S11)
       and the cycle-accounting audit run at the end of every machine's
       run regardless. *)
    let plan =
      {
        E.Run.default with
        cores = check_cores;
        record = true;
        detectors =
          List.filter_map
            (fun (on, d) -> if on then Some d else None)
            [ (race, E.Run.Race); (lockdep, E.Run.Lockdep);
              (capflow, E.Run.Capflow) ];
        chaos;
      }
    in
    let name =
      match experiment with
      | `Hello -> "hello"
      | `Redis -> "redis"
      | `Unixbench -> "unixbench"
      | `Storm -> "storm"
    in
    (try
       E.with_plan plan (fun () ->
           run_checked_workload system ~cores:check_cores experiment)
     with
    | Checker.Unsafe report ->
        Printf.eprintf "check %s on %s: FAILED\n%s\n" name
          (E.system_label system) report;
        exit 1
    | Ufork_sim.Trace.Audit_failure msg ->
        Printf.eprintf "check %s on %s: accounting audit FAILED: %s\n" name
          (E.system_label system) msg;
        exit 1);
    Printf.printf
      "check %s on %s: clean — state invariants S1-S11, protocol rules \
       L1-L5%s%s%s, cycle accounting\n"
      name (E.system_label system)
      (if race then ", race detection R1" else "")
      (if lockdep then ", lock-order R2" else "")
      (if capflow then ", cap-provenance R4" else "")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run a workload under the machine-state sanitizer and trace \
          protocol linter; non-zero exit on any violation")
    Term.(
      const run $ system_arg $ experiment $ check_cores $ race $ lockdep
      $ capflow $ chaos_arg ~stall:false)

(* explain: run a workload with the causal collector armed, then compute
   and report the critical path of a fork window (or any interval) —
   what bounded wall time, which spans it ran through, and which lock
   waits it crossed. *)
let explain_cmd =
  let module Causal = Ufork_analysis.Causal in
  let experiment =
    Arg.(
      value
      & pos 0
          (enum
             [
               ("hello", `Hello); ("redis", `Redis);
               ("unixbench", `Unixbench); ("storm", `Storm);
             ])
          `Redis
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            "Workload to explain: redis (default), hello, unixbench, or \
             storm (one concurrent forker per core).")
  in
  let cores =
    Arg.(
      value
      & opt (some int) None
      & info [ "cores" ] ~docv:"N"
          ~doc:"Core count to boot with (default: the workload's own).")
  in
  let fork_n =
    Arg.(
      value
      & opt (some int) None
      & info [ "fork" ] ~docv:"N"
          ~doc:
            "Analyze the $(docv)th completed fork window (\"fork\" span \
             open to close, anchored at the forker). Default 0 unless \
             $(b,--interval) or $(b,--chaos-stall-shard) is given.")
  in
  let interval =
    let interval_conv =
      let parse s =
        match String.index_opt s ':' with
        | Some i -> (
            let a = String.sub s 0 i
            and b = String.sub s (i + 1) (String.length s - i - 1) in
            match (Int64.of_string_opt a, Int64.of_string_opt b) with
            | Some a, Some b when Int64.compare a b <= 0 -> Ok (a, b)
            | _ -> Error (`Msg (Printf.sprintf "bad interval %S" s)))
        | None -> Error (`Msg (Printf.sprintf "bad interval %S (want A:B)" s))
      in
      let print ppf (a, b) = Format.fprintf ppf "%Ld:%Ld" a b in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt (some interval_conv) None
      & info [ "interval" ] ~docv:"A:B"
          ~doc:
            "Analyze the cycle interval [$(docv)] instead of a fork \
             window (anchor picked automatically).")
  in
  let top =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"K"
          ~doc:"Report the top $(docv) wait chains (default 5).")
  in
  let dot_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:"Write the critical path as a Graphviz digraph to $(docv).")
  in
  let json_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the full analysis (segments, blame, chains, \
                per-lock waits) as JSON to $(docv).")
  in
  let chrome_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-out" ] ~docv:"FILE"
          ~doc:
            "Write the critical path as a Chrome about:tracing / \
             Perfetto JSON file to $(docv).")
  in
  let run system experiment cores fork_n interval top dot_out json_out
      chrome_out chaos =
    let module Checker = Ufork_analysis.Checker in
    let chaos_stall = List.mem Chaos.Stall_shard chaos in
    E.with_plan
      { E.Run.default with cores; detectors = [ E.Run.Causal ]; chaos }
      (fun () ->
        (try run_checked_workload system ~cores experiment
         with Checker.Unsafe report ->
           Printf.eprintf "explain: workload failed its safety check\n%s\n"
             report;
           exit 1);
        let g =
          match E.causal_graph () with
          | Some g -> g
          | None ->
              Printf.eprintf "explain: no causal graph collected\n";
              exit 1
        in
        let report =
          try
            match (interval, fork_n, chaos_stall) with
            | Some (a, b), _, _ -> Causal.analyze g ~t0:a ~t1:b ()
            | None, Some n, _ -> Causal.analyze_fork g n
            | None, None, true ->
                (* Whole run: the injected stall must dominate no matter
                   where the fork windows sit. *)
                Causal.analyze g ~t0:0L ~t1:(Causal.horizon g) ()
            | None, None, false -> Causal.analyze_fork g 0
          with
          | Causal.Audit_failure msg ->
              Printf.eprintf "explain: path audit FAILED: %s\n" msg;
              exit 1
          | Invalid_argument msg ->
              Printf.eprintf "explain: %s\n" msg;
              exit 1
        in
        Format.printf "%a@." (Causal.pp_report ~top) report;
        Option.iter
          (fun path ->
            E.write_artifact path (fun oc ->
                output_string oc (Causal.to_dot report));
            Printf.printf "dot graph written to %s\n" path)
          dot_out;
        Option.iter
          (fun path ->
            E.write_artifact path (fun oc ->
                output_string oc (Causal.to_json report));
            Printf.printf "analysis JSON written to %s\n" path)
          json_out;
        Option.iter
          (fun path ->
            E.write_artifact path (fun oc ->
                output_string oc (Causal.to_chrome report));
            Printf.printf "chrome trace written to %s\n" path)
          chrome_out;
        if chaos_stall then begin
          let wall = Int64.sub report.Causal.r_t1 report.Causal.r_t0 in
          match Causal.dominant_lock report with
          | Some (lock, cycles)
            when Int64.compare wall 0L > 0
                 && Int64.to_float cycles /. Int64.to_float wall >= 0.2 ->
              let v =
                {
                  Invariant.invariant = Invariant.Lock_stall;
                  subject = lock;
                  detail =
                    Printf.sprintf
                      "wait edges on %s account for %Ld of %Ld \
                       critical-path cycles (%.1f%%) — a single lock \
                       dominates the path"
                      lock cycles wall
                      (100. *. Int64.to_float cycles /. Int64.to_float wall);
                }
              in
              Printf.eprintf "explain: FAILED\n%s\n"
                (Invariant.report [ v ]);
              exit 1
          | Some _ | None ->
              (* The injection did not surface: a broken analyzer. CI
                 runs this as a must-fail control, so a clean exit here
                 is the caught regression. *)
              Printf.printf
                "chaos stall injected but no dominant wait edge found\n"
        end)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run a workload with the causal collector armed and report why \
          a fork window (or any interval) took as long as it did: the \
          weighted critical path, span-level blame, and the top lock \
          wait chains")
    Term.(
      const run $ system_arg $ experiment $ cores $ fork_n $ interval $ top
      $ dot_out $ json_out $ chrome_out $ chaos_arg ~stall:true)

(* profile: run an experiment with span attribution and print/export the
   folded-stack flamegraph plus per-span latency histograms. *)
let profile_cmd =
  let module Trace = Ufork_sim.Trace in
  let module Histogram = Ufork_sim.Histogram in
  let flame_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "flame-out"; "o" ] ~docv:"FILE"
          ~doc:
            "Write the folded flamegraph stacks to $(docv) instead of \
             stdout (feed to flamegraph.pl or inferno-flamegraph).")
  in
  let experiment = small_experiment_arg ~verb:"profile" in
  let run system flame_out experiment =
    E.with_plan { E.Run.default with collect_profiles = true } (fun () ->
        run_small_experiment system experiment;
        let traces = E.profiled_traces () in
        let folded =
          String.concat "" (List.map Trace.folded_stacks traces)
        in
        if String.trim folded = "" then begin
          Printf.eprintf "profile: no cycles attributed (empty flamegraph)\n";
          exit 1
        end;
        (match flame_out with
        | Some path ->
            E.write_artifact path (fun oc -> output_string oc folded);
            Printf.printf "flamegraph stacks written to %s\n" path
        | None ->
            print_newline ();
            print_string folded);
        (* Merge each span name's duration histogram across the machines
           this experiment booted (comparative runs boot several). *)
        let merged = Hashtbl.create 16 in
        List.iter
          (fun tr ->
            List.iter
              (fun (name, h) ->
                Hashtbl.replace merged name
                  (match Hashtbl.find_opt merged name with
                  | Some prev -> Histogram.merge prev h
                  | None -> h))
              (Trace.span_histograms tr))
          traces;
        let rows =
          List.sort compare
            (Hashtbl.fold (fun k v acc -> (k, v) :: acc) merged [])
        in
        Printf.printf "\n%-24s %8s %12s %12s %12s %12s\n" "span" "count"
          "p50(us)" "p90(us)" "p99(us)" "max(us)";
        List.iter
          (fun (name, h) ->
            let us q = Units.us_of_cycles (Histogram.quantile h q) in
            Printf.printf "%-24s %8d %12.2f %12.2f %12.2f %12.2f\n" name
              (Histogram.count h) (us 0.5) (us 0.9) (us 0.99)
              (Units.us_of_cycles (Histogram.max_value h)))
          rows)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run an experiment with phase-attribution spans and emit a \
          folded-stack flamegraph plus per-span latency histograms \
          (p50/p90/p99/max)")
    Term.(const run $ system_arg $ flame_out $ experiment)

(* stats: run an experiment with virtual-time gauge sampling and dump a
   Prometheus-style snapshot plus the time series as CSV. *)
let stats_cmd =
  let module Trace = Ufork_sim.Trace in
  let interval =
    Arg.(
      value & opt int 250_000
      & info [ "interval"; "i" ] ~docv:"CYCLES"
          ~doc:
            "Gauge-sampling interval in simulated cycles (default 250000 \
             = 100 us at the simulated 2.5 GHz clock).")
  in
  let csv_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv-out" ] ~docv:"FILE"
          ~doc:
            "Write the sampled time series as CSV to $(docv) (one block \
             per booted machine, blocks separated by a blank line).")
  in
  let experiment = small_experiment_arg ~verb:"sample" in
  let run system interval csv_out experiment =
    if interval <= 0 then begin
      Printf.eprintf "stats: --interval must be positive\n";
      exit 1
    end;
    Ufork_sim.Sync.reset_lock_contention ();
    E.with_plan
      {
        E.Run.default with
        collect_profiles = true;
        sample_interval = Some (Int64.of_int interval);
      }
      (fun () ->
        run_small_experiment system experiment;
        let traces = E.profiled_traces () in
        print_newline ();
        List.iter (fun tr -> print_string (Trace.to_prometheus_string tr)) traces;
        (* Per-lock contention counters from every machine this run
           booted, in the same Prometheus text format. *)
        print_string (Ufork_sim.Sync.lock_contention_prometheus ());
        match csv_out with
        | None -> ()
        | Some path ->
            E.write_artifact path (fun oc ->
                List.iteri
                  (fun i tr ->
                    if i > 0 then output_char oc '\n';
                    output_string oc (Trace.samples_csv tr))
                  traces);
            let samples =
              List.fold_left
                (fun acc tr -> acc + List.length (Trace.samples tr))
                0 traces
            in
            Printf.printf "%d sample(s) written to %s\n" samples path)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run an experiment with virtual-time gauge sampling (frames in \
          use, CoW-pending pages, per-process RSS) and dump a \
          Prometheus-style snapshot plus the time series as CSV")
    Term.(const run $ system_arg $ interval $ csv_out $ experiment)

(* ablate *)
let ablate_cmd =
  let run () =
    let show (r : E.ablation_row) =
      Printf.printf "  %-46s %10.2f %s\n" r.E.label r.E.value r.E.unit_
    in
    print_endline "Proactive GOT/metadata copy:";
    List.iter show (E.ablate_proactive ());
    print_endline "Sealed vs trap syscall entry:";
    List.iter show (E.ablate_syscall_entry ());
    print_endline "Isolation levels (Redis 10 MB save):";
    List.iter show (E.ablate_isolation ());
    print_endline "Fragmentation (virtual-arena growth under churn):";
    List.iter
      (fun (r : E.fragmentation_row) ->
        Printf.printf "  %-16s %4d forks: arena %8.2f MB, live %8.2f MB\n"
          r.E.scenario r.E.churn r.E.arena_mb r.E.live_mb)
      (E.ablate_fragmentation ())
  in
  Cmd.v
    (Cmd.info "ablate" ~doc:"Design-choice ablations beyond the paper")
    Term.(const run $ const ())

(* lint: the AST-level discipline linter over the simulator's own
   sources, exposed as a subcommand so one binary carries both the
   dynamic checks (check) and the static ones. *)
let lint_cmd =
  let module Rules = Ufork_lint_core.Lint_rules in
  let module Lint = Ufork_lint_core.Lint_engine in
  let module Lockdep = Ufork_lint_core.Lockdep in
  let module Capflow = Ufork_lint_core.Capflow in
  let root =
    Arg.(
      value & pos 0 dir "."
      & info [] ~docv:"ROOT"
          ~doc:
            "Repository root to lint; scans every .ml/.mli under \
             $(docv)/lib, $(docv)/bin, $(docv)/bench and $(docv)/tools.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit findings as a JSON array on stdout.")
  in
  let list_rules =
    Arg.(
      value & flag
      & info [ "list" ]
          ~doc:
            "Print the rule catalogue (id, severity, one-line description) \
             and exit.")
  in
  let md =
    Arg.(
      value & flag
      & info [ "md" ]
          ~doc:
            "With $(b,--list): emit the catalogue as a markdown table (the \
             one checked into DESIGN.md).")
  in
  let lock_graph =
    Arg.(
      value
      & opt (some (enum [ ("dot", `Dot); ("json", `Json) ])) None
      & info [ "lock-graph" ] ~docv:"FMT"
          ~doc:
            "Instead of linting, export the lock-order graph inferred by \
             the D10 analysis — hierarchy, inferred and declared edges — \
             as $(docv): dot (Graphviz) or json.")
  in
  let run root json list_rules md lock_graph =
    if list_rules then begin
      Rules.print_catalogue ~md ();
      exit 0
    end;
    let prog = Lint.load root in
    (match lock_graph with
    | Some fmt ->
        let g = Lockdep.graph prog in
        print_string
          (match fmt with
          | `Dot -> Lockdep.to_dot g
          | `Json -> Lockdep.to_json g);
        exit 0
    | None -> ());
    let findings =
      Lint.sort_findings
        (Lint.check prog @ Lockdep.check prog @ Capflow.check prog)
    in
    if json then print_endline (Lint.to_json findings)
    else begin
      List.iter (fun f -> Format.printf "%a@." Lint.pp_finding f) findings;
      if findings = [] then
        Printf.printf
          "lint: clean — %d rules (D1-D13) over lib/, bin/, bench/, tools/ \
           (%d files)\n"
          (List.length Rules.all)
          (List.length prog.Lint.files)
    end;
    if findings <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically lint the simulator sources against the discipline \
          catalogue (charging, memops, fork spine, gauge keys, \
          determinism, lock order); non-zero exit on any finding")
    Term.(const run $ root $ json $ list_rules $ md $ lock_graph)

let default =
  Term.(
    ret
      (const (fun () -> `Help (`Pager, None)) $ const ()))

let () =
  let info =
    Cmd.info "ufork_sim" ~version:"1.0"
      ~doc:
        "Simulation-based reproduction of uFork (SOSP 2025): POSIX fork \
         within a single-address-space OS"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            redis_cmd; hello_cmd; faas_cmd; nginx_cmd; unixbench_cmd;
            meter_cmd; trace_cmd; check_cmd; explain_cmd; lint_cmd;
            profile_cmd; stats_cmd; ablate_cmd;
          ]))
