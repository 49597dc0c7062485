module Units = Ufork_util.Units
module Costs = Ufork_sim.Costs
module Engine = Ufork_sim.Engine
module Trace = Ufork_sim.Trace
module Config = Ufork_sas.Config
module Image = Ufork_sas.Image
module Api = Ufork_sas.Api
module Uproc = Ufork_sas.Uproc
module Kernel = Ufork_sas.Kernel
module Vfs = Ufork_sas.Vfs
module Fdesc = Ufork_sas.Fdesc
module Strategy = Ufork_core.Strategy
module System = Ufork_core.System
module Os = Ufork_core.Os
module Monolithic = Ufork_baselines.Monolithic
module Vmclone = Ufork_baselines.Vmclone
module Kvstore = Ufork_apps.Kvstore
module Rdb = Ufork_apps.Rdb
module Mpy = Ufork_apps.Mpy
module Faas = Ufork_apps.Faas
module Httpd = Ufork_apps.Httpd
module Unixbench = Ufork_apps.Unixbench
module Hello = Ufork_apps.Hello
module Checker = Ufork_analysis.Checker
module Race = Ufork_analysis.Race
module Lockdep = Ufork_analysis.Lockdep
module Causal = Ufork_analysis.Causal
module Capflow = Ufork_analysis.Capflow
module Invariant = Ufork_analysis.Invariant
module Relocate = Ufork_core.Relocate
module Fork_spine = Ufork_core.Fork_spine

type system =
  | Ufork of Strategy.t
  | Ufork_toctou of Strategy.t
  | Cheribsd
  | Nephele
  | Linux_ref

let system_label = function
  | Ufork s -> Printf.sprintf "uFork/%s" (Strategy.to_string s)
  | Ufork_toctou s -> Printf.sprintf "uFork/%s+TOCTTOU" (Strategy.to_string s)
  | Cheribsd -> "CheriBSD"
  | Nephele -> "Nephele"
  | Linux_ref -> "Linux (ref)"

(* A booted system behind a uniform interface. *)
type booted = {
  kernel : Kernel.t;
  engine : Engine.t;
  start :
    ?affinity:int -> image:Image.t -> (Api.t -> unit) -> Uproc.t;
  run : ?until:int64 -> unit -> unit;
}

(* {1 Harness-wide run options}

   The bench/CLI front ends set these once from their flags; every
   subsequent [boot] picks them up, so one [--cores]/[--trace-out] applies
   uniformly across the systems an experiment compares. *)

let default_cores : int option ref = ref None
let set_default_cores n = default_cores := n

type trace_format = Jsonl | Chrome

let trace_sink : (string * trace_format) option ref = ref None

(* Traces of every machine booted since the sink was set, oldest first —
   a comparative experiment boots several systems and the output file
   should hold them all. *)
let traced : Trace.t list ref = ref []

(* Drop count already reported on stderr, so a flush after every run
   warns once per overflow rather than once per subsequent flush. *)
let warned_dropped = ref 0

let set_trace_out ?(format = Jsonl) path =
  trace_sink := Option.map (fun p -> (p, format)) path;
  traced := [];
  warned_dropped := 0

(* Force event recording on every machine booted from here on, even with
   no trace sink — the [check] front end needs the stream for the
   protocol linter. *)
let record_always = ref false
let set_record_always on = record_always := on

(* {2 Profiling options}

   [profile_sink] mirrors [trace_sink] for folded flamegraph stacks;
   [collect_profiles] keeps the trace registry populated without any
   file output so front ends (the [profile]/[stats] subcommands) can
   read span aggregates and histograms back after a run. *)

let profile_sink : string option ref = ref None
let collect_profiles = ref false

(* Traces of every machine booted since a profile consumer was armed,
   oldest first. *)
let profiled : Trace.t list ref = ref []

let set_profile_out path =
  profile_sink := path;
  profiled := []

let set_collect_profiles on =
  collect_profiles := on;
  profiled := []

let profiled_traces () = !profiled

(* Stat-sampling interval in simulated cycles; applied to every machine
   booted while set. *)
let sample_interval : int64 option ref = ref None
let set_sample_interval i = sample_interval := i

(* {2 Race and lock-order detection}

   With [race_detect] set, every boot arms a fresh happens-before
   detector on the instrumentation bus and [finish_run] raises
   {!Checker.Unsafe} if any conflicting unordered writes were seen.
   [lockdep_detect] does the same for the lock-acquisition-order checker
   (invariant R2); the bus carries one subscriber, so when both are
   armed a single closure dispatches each event to both.
   [chaos_no_bkl] is the matching fault injection for the race side:
   boot with the big kernel lock disabled and spawn one rogue thread
   that performs a deliberate unlocked write to shared state mid-run.
   [chaos_invert_shard_order] is the lockdep counterpart: a rogue boot
   thread takes one pt-shard pair in descending index order. *)

let race_detect = ref false
let set_race_detect on = race_detect := on
let lockdep_detect = ref false
let set_lockdep_detect on = lockdep_detect := on
let chaos_no_bkl = ref false
let set_chaos_no_bkl on = chaos_no_bkl := on
let chaos_unshard = ref false
let set_chaos_unshard on = chaos_unshard := on
let chaos_invert_shard_order = ref false
let set_chaos_invert_shard_order on = chaos_invert_shard_order := on
let race_detector : Race.t option ref = ref None
let lockdep_checker : Lockdep.t option ref = ref None

(* {2 Causal tracing}

   With [causal_trace] set, every boot arms a fresh causal collector
   ({!Causal}) on the same bus subscription; the front end reads it back
   through [causal_graph] after the run for critical-path analysis.
   [chaos_stall_shard] is its fault injection: a rogue boot thread
   holds pt-shard 0 across a long sleep, and the analysis must report
   that lock as the dominant critical-path edge (R3). *)

let causal_trace = ref false
let set_causal_trace on = causal_trace := on
let chaos_stall = ref false
let set_chaos_stall_shard on = chaos_stall := on
let causal_collector : Causal.t option ref = ref None
let causal_graph () = !causal_collector

(* {2 Capability-provenance (capflow) checking}

   With [capflow_detect] set, every boot arms the R4 taint machinery:
   the Capflow stream detector on the bus subscription, the
   fork-completion scan through {!Fork_spine.fork_probe}, and the
   provenance clause of {!Checker.sweep} (via [Capflow.armed]).
   Three chaos injections cross-certify it against the static rule D13:
   [chaos_skip_rebase] leaves one capability un-rebased in the fork
   copy, [chaos_heap_smuggle] carries a parent capability across the
   fork in an OCaml-heap cell invisible to the tag scan, and
   [chaos_leak_root] hands the kernel root to a μprocess. Each must
   fail the run with exactly R4. *)

let capflow_detect = ref false
let set_capflow_detect on = capflow_detect := on
let chaos_skip_rebase = ref false
let set_chaos_skip_rebase on = chaos_skip_rebase := on
let chaos_heap_smuggle = ref false
let set_chaos_heap_smuggle on = chaos_heap_smuggle := on
let chaos_leak_root = ref false
let set_chaos_leak_root on = chaos_leak_root := on
let capflow_detector : Capflow.t option ref = ref None

(* {2 Domain-parallel sweeps}

   [parmap] fans one experiment per sweep point out over OCaml domains.
   Every machine is self-contained (engine, kernel, trace, meter), so
   points never exchange simulated state and each point's result is the
   same bit pattern the serial order produces; only the process-global
   registries above are shared, and every write to them is mutexed.
   Whenever any harness option that funnels per-run state through those
   registries is armed (trace/profile sinks, sampling, detectors, chaos),
   the fan-out silently degrades to serial — those paths want one
   machine at a time, and their cost dwarfs any sweep parallelism. *)

let registry_mutex = Mutex.create ()

let parallel_unsafe () =
  !record_always
  || Option.is_some !trace_sink
  || Option.is_some !profile_sink
  || !collect_profiles
  || Option.is_some !sample_interval
  || !race_detect || !lockdep_detect || !chaos_no_bkl || !chaos_unshard
  || !chaos_invert_shard_order
  || !causal_trace || !chaos_stall
  || !capflow_detect || !chaos_skip_rebase || !chaos_heap_smuggle
  || !chaos_leak_root

let parmap ~jobs f items =
  let jobs = if parallel_unsafe () then 1 else max 1 jobs in
  let n = List.length items in
  if jobs <= 1 || n <= 1 then List.map f items
  else begin
    let arr = Array.of_list items in
    let out = Array.make n None in
    let next = Atomic.make 0 in
    (* Workers never raise: each point's outcome is captured by index, so
       results (and the first failure, re-raised in item order) are
       independent of domain scheduling. *)
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (out.(i) <- Some (try Ok (f arr.(i)) with e -> Error e));
          loop ()
        end
      in
      loop ()
    in
    let helpers = List.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join helpers;
    Array.to_list arr |> List.mapi (fun i _ ->
        match out.(i) with
        | Some (Ok v) -> v
        | Some (Error e) -> raise e
        | None -> assert false (* every index below [n] was claimed *))
  end

(* Host-side throughput accounting for the events bench: every
   [finish_run] adds its machine's lifetime {!Trace.emits} here, so the
   bench front end can report simulated events per wall-clock second
   without threading counts through each experiment's row type. Atomic,
   not mutexed: a sum is order-independent. *)
let emits_acc = Atomic.make 0
let reset_emits () = Atomic.set emits_acc 0
let emits_total () = Atomic.get emits_acc

let register_trace tr =
  if !record_always then Trace.set_recording tr true;
  if Option.is_some !trace_sink then begin
    Trace.set_recording tr true;
    Mutex.protect registry_mutex (fun () -> traced := !traced @ [ tr ])
  end;
  if !collect_profiles || Option.is_some !profile_sink then
    Mutex.protect registry_mutex (fun () -> profiled := !profiled @ [ tr ])

let traced_dropped () =
  List.fold_left (fun acc tr -> acc + Trace.dropped tr) 0 !traced

(* Artifact writes create missing parents and turn filesystem failures
   into a clean one-line error — the harness front ends (CLI, bench)
   must never surface a Sys_error backtrace for a bad out-path. *)
let write_artifact path f =
  match Ufork_util.Fsout.with_out path f with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "error: %s\n%!" msg;
      exit 1

(* Rewrite the sink from all traces so far; called after every run so the
   file is complete whenever the harness stops. *)
let flush_trace () =
  (match !trace_sink with
  | None -> ()
  | Some (path, format) ->
      write_artifact path (fun oc ->
          match format with
          | Jsonl ->
              List.iter
                (fun tr -> output_string oc (Trace.to_jsonl_string tr))
                !traced
          | Chrome ->
              output_string oc
                (Trace.chrome_of_records
                   (List.concat_map Trace.records !traced)));
      (* The ring drops oldest-first on overflow; a truncated artifact
         must say so rather than pass for a complete recording. *)
      let dropped = traced_dropped () in
      if dropped > !warned_dropped then begin
        warned_dropped := dropped;
        Printf.eprintf
          "warning: trace ring overflowed; %d oldest record%s dropped from %s\n\
           %!"
          dropped
          (if dropped = 1 then "" else "s")
          path
      end);
  match !profile_sink with
  | None -> ()
  | Some path ->
      write_artifact path (fun oc ->
          List.iter
            (fun tr -> output_string oc (Trace.folded_stacks tr))
            !profiled)

(* The accounting invariant, checked after every experiment run: the
   engine's lifetime busy cycles must equal the cycles charged through the
   machine's event bus — no hidden constants (ISSUE: fig8/fig9 audits). *)
let audit_booted b =
  Trace.audit (Kernel.trace b.kernel) ~costs:(Kernel.costs b.kernel)
    ~elapsed:(Engine.advanced b.engine)

let finish_run b =
  ignore (Atomic.fetch_and_add emits_acc (Trace.emits (Kernel.trace b.kernel)));
  audit_booted b;
  (* The state sanitizer next to the accounting audit: a run that
     corrupted machine state must not report numbers. The lint half sees
     the recorded stream, so it is active whenever recording is. *)
  Checker.assert_safe b.kernel;
  (let vs =
     (match !race_detector with Some d -> Race.violations d | None -> [])
     @ (match !lockdep_checker with
       | Some d -> Lockdep.violations d
       | None -> [])
     @ (match !capflow_detector with
       | Some d -> Capflow.violations d
       | None -> [])
   in
   match vs with
   | [] -> ()
   | vs -> raise (Checker.Unsafe (Invariant.report vs)));
  flush_trace ()

(* Every flavour boots down to the same {!Ufork_core.System.t}; the
   uniform interface is one projection, not five hand-rolled records. *)
let booted_of_system sys =
  {
    kernel = System.kernel sys;
    engine = System.engine sys;
    start = (fun ?affinity ~image main -> System.start sys ?affinity ~image main);
    run = (fun ?until () -> System.run ?until sys);
  }

let boot_raw ~cores ?config system =
  let sys =
    match system with
    | Ufork strategy ->
        Os.system
          (Os.boot ~cores
             ~config:(Option.value config ~default:Config.ufork_fast)
             ~strategy ())
    | Ufork_toctou strategy ->
        Os.system
          (Os.boot ~cores
             ~config:(Option.value config ~default:Config.ufork_default)
             ~strategy ())
    | Cheribsd -> Monolithic.system (Monolithic.boot ~cores ?config ())
    | Linux_ref ->
        Monolithic.system
          (Monolithic.boot ~cores
             ~config:(Option.value config ~default:Config.linux_default)
             ~costs:Costs.linux_ref ())
    | Nephele -> Vmclone.system (Vmclone.boot ~cores ?config ())
  in
  booted_of_system sys

let boot ?(cores = 4) ?config system =
  let cores = Option.value !default_cores ~default:cores in
  (* Arm the detectors before boot so image setup and process spawns are
     already on their clocks. The bus carries a single subscriber: one
     closure dispatches to whichever of the two checkers is armed; when
     neither is, the bus from an earlier (possibly aborted) checked run
     must not outlive it — disarm and drop both. *)
  let rd = if !race_detect then Some (Race.create ()) else None in
  let ld = if !lockdep_detect then Some (Lockdep.create ()) else None in
  let cd = if !causal_trace then Some (Causal.create ()) else None in
  race_detector := rd;
  lockdep_checker := ld;
  causal_collector := cd;
  (* The capflow detector needs the kernel, which does not exist yet:
     its bus handler dispatches through the registry slot, filled right
     after boot. The few boot-time stores it misses are swept by the
     armed Checker clause at finish_run. *)
  capflow_detector := None;
  Capflow.armed := !capflow_detect;
  let handlers =
    List.filter_map Fun.id
      [
        Option.map (fun d ev -> Race.handle d ev) rd;
        Option.map (fun d ev -> Lockdep.handle d ev) ld;
        Option.map (fun d ev -> Causal.handle d ev) cd;
        (if !capflow_detect then
           Some
             (fun ev ->
               match !capflow_detector with
               | Some d -> Capflow.handle d ev
               | None -> ())
         else None);
      ]
  in
  (match handlers with
  | [] -> Ufork_util.Hb.unsubscribe ()
  | [ h ] -> Ufork_util.Hb.subscribe h
  | hs -> Ufork_util.Hb.subscribe (fun ev -> List.iter (fun h -> h ev) hs));
  let b = boot_raw ~cores ?config system in
  if !capflow_detect then begin
    capflow_detector := Some (Capflow.create b.kernel);
    (* Fail at the fork that leaked, not at the next sweep: the probe
       raises from inside the fork window's closing edge. *)
    Fork_spine.fork_probe :=
      Some
        (fun k ~child ->
          match Capflow.scan_fork k ~child with
          | [] -> ()
          | vs -> raise (Checker.Unsafe (Invariant.report vs)))
  end
  else Fork_spine.fork_probe := None;
  if !chaos_skip_rebase then Relocate.chaos_skip_rebase := true;
  if !chaos_heap_smuggle then Fork_spine.chaos_heap_smuggle := true;
  if !chaos_leak_root then
    (* A rogue boot thread retries until a process is running, then
       plants the kernel root in its GOT — the stream detector (and the
       armed sweep) must accuse exactly R4. *)
    ignore
      (Engine.spawn b.engine ~name:"chaos-leak-root" (fun () ->
           let rec attempt budget =
             Engine.sleep 500L;
             if (not (Kernel.chaos_leak_root b.kernel)) && budget > 0 then
               attempt (budget - 1)
           in
           attempt 100));
  (* Boot-time events were stamped 0 (correct: the engine starts there);
     everything after reads the machine's clock. *)
  Option.iter
    (fun c -> Causal.set_now c (fun () -> Engine.now b.engine))
    cd;
  register_trace (Kernel.trace b.kernel);
  (match !sample_interval with
  | Some interval -> Kernel.enable_stat_sampling b.kernel ~interval
  | None -> ());
  if !chaos_no_bkl then begin
    Kernel.chaos_disable_biglock b.kernel;
    (* The seeded bug: one kernel-side write to shared state (the fork
       latency gauge every fork also writes) from a thread that takes no
       lock. With the big lock gone nothing orders it. *)
    ignore
      (Engine.spawn b.engine ~name:"chaos-unlocked" (fun () ->
           Engine.sleep 1_000L;
           Trace.gauge (Kernel.trace b.kernel) Trace.last_fork_latency_key 0))
  end;
  if !chaos_unshard then
    (* The sharded-regime control: only the stats shard loses its lock.
       No bug is seeded beyond that — the race, if the detector is
       honest, is between two legitimate fork-path gauge writes from
       different forking threads (run a concurrent-fork workload such as
       {!fork_storm_run}). Every other shard stays armed, so the report
       must be exactly one R1 on the gauge. *)
    Kernel.chaos_unshard_stats b.kernel;
  if !chaos_invert_shard_order then
    (* The lockdep control: a rogue boot thread takes one pt-shard pair
       in descending index order. Spawned first, it runs before any
       workload thread, so both shards are free and the inversion
       completes (and is published) rather than deadlocking — the
       checker must fail the run with exactly R2. *)
    ignore
      (Engine.spawn b.engine ~name:"chaos-shard-invert" (fun () ->
           Kernel.chaos_acquire_shards_descending b.kernel));
  if !chaos_stall then
    (* The causal-analyzer control: a rogue boot thread camps on
       pt-shard 0 across a long sleep. Spawned before any workload
       thread, it wins the shard while free; every fork touching shard 0
       then queues behind a sleeping holder, and the analysis must name
       this lock as the dominant critical-path edge. *)
    ignore
      (Engine.spawn b.engine ~name:"chaos-stall-shard" (fun () ->
           Kernel.chaos_stall_shard b.kernel));
  b

let child_private_mb b pid =
  match Kernel.find_uproc b.kernel pid with
  | Some u -> Units.mb_of_bytes u.Uproc.private_bytes
  | None -> nan

(* {1 Redis} *)

type redis_row = {
  system : system;
  db_label : string;
  db_bytes : int;
  entries : int;
  save_ms : float;
  fork_us : float;
  child_mb : float;
  dump_ok : bool;
}

let value_seed = 0x5eedL

(* The paper's prototype gives each μprocess a build-time-sized static
   heap; with a 100 MB database the heap reservation is 136.7 MB (§5.2).
   We scale the build the same way: reservation = 1.37 x database size. *)
let redis_image ~db_bytes =
  let heap_bytes = max (4 * 1024 * 1024) (db_bytes * 137 / 100) in
  Image.redis ~heap_bytes

let redis_run system ~entries ~value_len ~db_label =
  let db_bytes = entries * value_len in
  let b = boot ~cores:4 system in
  let result = ref None in
  let _u =
    b.start ~image:(redis_image ~db_bytes) (fun api ->
        let store = Kvstore.create api ~buckets:1024 () in
        Keyspace.populate store ~entries ~value_len ~seed:value_seed;
        let r = Rdb.bgsave api store ~path:"/dump.rdb" in
        result := Some r)
  in
  b.run ();
  finish_run b;
  match !result with
  | None -> failwith "redis_run: benchmark process never completed"
  | Some r ->
      (* The exited child's pages are garbage by now; collecting them
         before the dump is copied out keeps a 1 GB point's host memory
         to what is live: the store, the file and its copy. *)
      Gc.full_major ();
      let dump_ok =
        match Vfs.contents (Kernel.vfs b.kernel) "/dump.rdb" with
        | exception Not_found -> false
        | contents ->
            Keyspace.dump_matches ~entries ~value_len ~seed:value_seed contents
      in
      {
        system;
        db_label;
        db_bytes;
        entries;
        save_ms = Units.ms_of_cycles r.Rdb.total_cycles;
        fork_us = Units.us_of_cycles r.Rdb.fork_latency_cycles;
        child_mb = child_private_mb b r.Rdb.child_pid;
        dump_ok;
      }

let redis_sweep ~systems ?(sizes = Keyspace.db_sizes_of_paper) ?(jobs = 1) ()
    =
  (* Flatten first so [parmap] sees every (system, size) point; the
     concat order is exactly the serial nesting, so results — each
     point its own machine — are bit-identical to the sequential map. *)
  let points =
    List.concat_map
      (fun system -> List.map (fun size -> (system, size)) sizes)
      systems
  in
  parmap ~jobs
    (fun (system, (db_label, entries, value_len)) ->
      redis_run system ~entries ~value_len ~db_label)
    points

(* {1 FaaS} *)

type faas_row = {
  system : system;
  worker_cores : int;
  throughput_per_s : float;
  completed : int;
}

(* FunctionBench float_operation sized to ~0.6 ms of interpreter work. *)
let faas_program = Mpy.float_operation ~n:3650

let faas_run system ~worker_cores ?(window_s = 1.0) () =
  if worker_cores <= 0 then invalid_arg "faas_run";
  let b = boot ~cores:(worker_cores + 1) system in
  let result = ref None in
  let window_cycles = Units.cycles_of_s window_s in
  let _u =
    b.start ~affinity:0 ~image:Image.micropython (fun api ->
        result :=
          Some
            (Faas.coordinator api ~max_workers:worker_cores ~window_cycles
               ~program:faas_program))
  in
  b.run ();
  finish_run b;
  match !result with
  | None -> failwith "faas_run: coordinator never completed"
  | Some r ->
      {
        system;
        worker_cores;
        throughput_per_s = r.Faas.throughput_per_s;
        completed = r.Faas.completed;
      }

(* {1 Nginx} *)

type nginx_row = {
  system : system;
  cores : int;
  workers : int;
  requests_per_s : float;
}

let nginx_run system ~cores ~workers ?(window_s = 1.0) ?(connections = 16) () =
  let b = boot ~cores system in
  Httpd.populate_docroot (Kernel.vfs b.kernel);
  let net = Httpd.Net.create () in
  let window_cycles = Units.cycles_of_s window_s in
  let u =
    b.start ~image:Image.nginx (fun api ->
        Httpd.master api ~net ~listen_rfd:3 ~listen_wfd:4 ~workers
          ~window_cycles)
  in
  (* Hand the master its pre-opened listen socket (fds 3 and 4), like a
     socket-activated service. *)
  let p = Httpd.Net.listen_pipe net in
  let rfd = Fdesc.Fdtable.alloc u.Uproc.fds (Fdesc.Pipe_read p) in
  let wfd = Fdesc.Fdtable.alloc u.Uproc.fds (Fdesc.Pipe_write p) in
  assert (rfd = 3 && wfd = 4);
  Httpd.Net.spawn_clients b.engine net ~connections ~window_cycles;
  b.run ();
  finish_run b;
  let stats = Httpd.Net.stats net in
  {
    system;
    cores;
    workers;
    requests_per_s = float_of_int stats.Httpd.Net.completed /. window_s;
  }

(* {1 hello world (Fig. 8)} *)

type hello_row = {
  system : system;
  fork_latency_us : float;
  child_memory_mb : float;
}

let hello_run system =
  let b = boot ~cores:4 system in
  let sample = ref None in
  let _u =
    b.start ~image:Image.hello (fun api ->
        let s = Hello.fork_once api in
        sample := Some s;
        Hello.reap api)
  in
  b.run ();
  finish_run b;
  match !sample with
  | None -> failwith "hello_run: process never completed"
  | Some s ->
      {
        system;
        fork_latency_us = Units.us_of_cycles s.Hello.latency_cycles;
        child_memory_mb = child_private_mb b s.Hello.child_pid;
      }

let fig8 () = List.map hello_run [ Ufork Strategy.Copa; Cheribsd; Nephele ]

(* {1 Unixbench (Fig. 9)} *)

type unixbench_row = {
  system : system;
  spawn_ms : float;
  context1_ms : float;
}

let unixbench_run system ~spawn_iters ~context1_iters =
  let spawn_cycles =
    let b = boot ~cores:4 system in
    let out = ref 0L in
    let _u =
      b.start ~image:Image.hello (fun api ->
          out := Unixbench.spawn api ~iterations:spawn_iters)
    in
    b.run ();
    finish_run b;
    !out
  in
  let ctx =
    let b = boot ~cores:4 system in
    let out = ref None in
    let _u =
      b.start ~image:Image.hello (fun api ->
          out := Some (Unixbench.context1 api ~iterations:context1_iters))
    in
    b.run ();
    finish_run b;
    match !out with
    | Some r -> r.Unixbench.total_cycles
    | None -> failwith "context1 never completed"
  in
  {
    system;
    spawn_ms = Units.ms_of_cycles spawn_cycles;
    context1_ms = Units.ms_of_cycles ctx;
  }

let fig9 ?(spawn_iters = 1000) ?(context1_iters = 100_000) () =
  List.map
    (fun s -> unixbench_run s ~spawn_iters ~context1_iters)
    [ Ufork Strategy.Copa; Cheribsd ]

(* {1 SMP fork scaling (BENCH_smp.json)} *)

type smp_row = {
  system : system;
  cores : int;
  locks : string;
  forks : int;
  forks_per_s : float;
  fault_p50_us : float;
  fault_p99_us : float;
  steals : int;
}

(* One forking μprocess per core, each forking and reaping [iters]
   children that dirty a two-page working set (a CoW resolution in the
   child, another back in the parent). The forkers run concurrently, so
   the uproc table, fd tables, page-table shards, frame pool and the
   stats gauge all see real cross-core contention: this is the workload
   the scaling bench sweeps and the CI race job replays under the
   happens-before detector. *)
let fork_storm_run ?config system ~cores ~iters () =
  let b = boot ~cores ?config system in
  let page = 4096 in
  let forks = ref 0 in
  for _ = 1 to cores do
    ignore
      (b.start ~image:Image.hello (fun api ->
           let cell = api.Api.malloc (2 * page) in
           api.Api.write_u64 cell ~off:0 0L;
           api.Api.got_set 0 cell;
           for _ = 1 to iters do
             ignore
               (api.Api.fork (fun capi ->
                    (* The GOT slot, not the parent's capability: CoPA
                       relocates the child's copy into its own area. *)
                    let c = capi.Api.got_get 0 in
                    capi.Api.write_u64 c ~off:0 1L;
                    capi.Api.write_u64 c ~off:page 2L;
                    capi.Api.exit 0));
             ignore (api.Api.wait ());
             (* Take the CoW write fault back on the parent side. *)
             api.Api.write_u64 cell ~off:0 3L;
             incr forks
           done))
  done;
  b.run ();
  finish_run b;
  let elapsed_s = Units.s_of_cycles (Engine.now b.engine) in
  let quant p =
    match Trace.span_histogram (Kernel.trace b.kernel) "fault.service" with
    | Some h -> Units.us_of_cycles (Ufork_sim.Histogram.quantile h p)
    | None -> 0.
  in
  {
    system;
    cores;
    locks =
      (match (Kernel.config b.kernel).Config.lock_mode with
      | Config.Big_kernel_lock -> "bkl"
      | Config.Sharded_locks -> "sharded");
    forks = !forks;
    forks_per_s =
      (if elapsed_s > 0. then float_of_int !forks /. elapsed_s else 0.);
    fault_p50_us = quant 0.5;
    fault_p99_us = quant 0.99;
    steals = Engine.steals b.engine;
  }

(* {1 Ablations} *)

type ablation_row = { label : string; value : float; unit_ : string }

let zygote_fork_faults ~proactive =
  let os =
    Os.boot ~cores:2 ~config:Config.ufork_fast ~strategy:Strategy.Copa
      ~proactive ()
  in
  let kernel = Os.kernel os in
  let latency = ref 0L in
  let _u =
    Os.start os ~image:Image.micropython (fun api ->
        Mpy.zygote_init api ~modules:24;
        let t0 = api.Api.now () in
        ignore
          (api.Api.fork (fun capi ->
               ignore (Mpy.zygote_check capi);
               capi.Api.exit 0));
        latency := Int64.sub (api.Api.now ()) t0;
        ignore (api.Api.wait ()))
  in
  Os.run os;
  Checker.assert_safe kernel;
  let faults =
    Ufork_sim.Meter.get (Kernel.meter kernel) Ufork_sim.Event.fault_key
  in
  (Units.us_of_cycles !latency, float_of_int faults)

let ablate_proactive () =
  let lat_on, faults_on = zygote_fork_faults ~proactive:true in
  let lat_off, faults_off = zygote_fork_faults ~proactive:false in
  [
    { label = "fork latency, proactive GOT/meta copy"; value = lat_on; unit_ = "us" };
    { label = "fork latency, lazy GOT/meta"; value = lat_off; unit_ = "us" };
    { label = "post-fork faults, proactive"; value = faults_on; unit_ = "faults" };
    { label = "post-fork faults, lazy"; value = faults_off; unit_ = "faults" };
  ]

let context1_with_config config =
  let os = Os.boot ~cores:4 ~config ~strategy:Strategy.Copa () in
  let out = ref None in
  let _u =
    Os.start os ~image:Image.hello (fun api ->
        out := Some (Unixbench.context1 api ~iterations:10_000))
  in
  Os.run os;
  Checker.assert_safe (Os.kernel os);
  match !out with
  | Some r -> r.Unixbench.per_switch_cycles /. Units.clock_hz *. 1e6
  | None -> failwith "context1 never completed"

let ablate_syscall_entry () =
  let sealed = context1_with_config Config.ufork_fast in
  let trap =
    context1_with_config
      { Config.ufork_fast with Config.syscall_mode = Config.Trap }
  in
  [
    { label = "Context1 round trip, sealed entry"; value = sealed; unit_ = "us" };
    { label = "Context1 round trip, trap entry"; value = trap; unit_ = "us" };
  ]

let ablate_isolation () =
  let run config label =
    let b =
      boot ~cores:4 ~config (Ufork Strategy.Copa)
    in
    let result = ref None in
    let entries = 100 and value_len = 100 * 1024 in
    let _u =
      b.start ~image:(redis_image ~db_bytes:(entries * value_len)) (fun api ->
          let store = Kvstore.create api ~buckets:1024 () in
          Keyspace.populate store ~entries ~value_len ~seed:value_seed;
          result := Some (Rdb.bgsave api store ~path:"/dump.rdb"))
    in
    b.run ();
    finish_run b;
    match !result with
    | Some r ->
        {
          label = "Redis 10MB save, " ^ label;
          value = Units.ms_of_cycles r.Rdb.total_cycles;
          unit_ = "ms";
        }
    | None -> failwith "ablate_isolation: run failed"
  in
  [
    run { Config.ufork_fast with Config.isolation = Config.No_isolation } "no isolation";
    run Config.ufork_fast "fault isolation";
    run { Config.ufork_fast with Config.isolation = Config.Full_isolation } "full isolation";
    run Config.ufork_default "full isolation + TOCTTOU";
  ]

(* {1 Fragmentation study (§6)}

   The paper notes μprocess areas are large and contiguous, raising
   fragmentation concerns for long-running fork-heavy deployments, and
   proposes compaction or size classes as future work. Quantify the
   problem: uniform fork/exit churn recycles areas perfectly, while
   processes of interleaved different sizes leave holes that first-fit
   cannot always fill. *)

type fragmentation_row = {
  scenario : string;
  churn : int;  (** fork/exit rounds performed *)
  arena_mb : float;  (** virtual-arena high-water mark *)
  live_mb : float;  (** area bytes still owned by live processes *)
}

let fragmentation_run ?(fit = Config.First_fit) ~mixed ~churn () =
  let os =
    Os.boot ~cores:2 ~config:(Config.with_area_fit fit Config.ufork_fast) ()
  in
  let kernel = Os.kernel os in
  let images =
    if mixed then
      [
        Image.make ~heap_bytes:(256 * 1024) "small";
        Image.make ~heap_bytes:(4 * 1024 * 1024) "large";
        Image.make ~heap_bytes:(1024 * 1024) "medium";
      ]
    else [ Image.make ~heap_bytes:(1024 * 1024) "uniform" ]
  in
  (* Each driver process churns children of its own size; drivers of
     different sizes interleave their reaps, shredding the free list. *)
  List.iter
    (fun image ->
      ignore
        (Os.start os ~image (fun api ->
             for _ = 1 to churn do
               ignore (api.Api.fork (fun capi -> capi.Api.exit 0));
               ignore (api.Api.wait ())
             done)))
    images;
  Os.run os;
  Checker.assert_safe kernel;
  {
    scenario =
      Printf.sprintf "%s, %s"
        (if mixed then "mixed sizes" else "uniform size")
        (match fit with
        | Config.First_fit -> "first fit"
        | Config.Best_fit -> "best fit");
    churn = churn * List.length images;
    arena_mb = Units.mb_of_bytes (Kernel.arena_span kernel);
    live_mb = Units.mb_of_bytes (Kernel.live_area_bytes kernel);
  }

let ablate_fragmentation ?(churn = 50) () =
  [
    fragmentation_run ~mixed:false ~churn ();
    fragmentation_run ~mixed:true ~churn ();
    fragmentation_run ~fit:Config.Best_fit ~mixed:true ~churn ();
  ]
