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
module Chaos = Ufork_analysis.Chaos
module Relocate = Ufork_core.Relocate

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

(* {1 The run plan}

   Everything a front end asks of the runs it drives is one immutable
   plan: a core-count override, event recording, the trace and profile
   sinks, stat sampling, the dynamic detectors and the chaos injections.
   [with_plan] installs a plan around a body and every [boot] inside
   reads it once, so one [--cores]/[--trace-out] applies uniformly
   across the systems an experiment compares. *)

type trace_format = Jsonl | Chrome

module Run = struct
  type detector = Race | Lockdep | Causal | Capflow

  type t = {
    cores : int option;
    record : bool;
    trace_out : (string * trace_format) option;
    profile_out : string option;
    collect_profiles : bool;
    sample_interval : int64 option;
    detectors : detector list;
    chaos : Chaos.injection list;
  }

  let default =
    {
      cores = None;
      record = false;
      trace_out = None;
      profile_out = None;
      collect_profiles = false;
      sample_interval = None;
      detectors = [];
      chaos = [];
    }
end

(* What an installed plan has collected: the machines its trace sink and
   profile consumers keep, oldest first (a comparative experiment boots
   several systems and the output file should hold them all), and the
   ring-drop count already reported, so a flush after every run warns
   once per overflow. *)
type collected = {
  mutable traced : Trace.t list;
  mutable profiled : Trace.t list;
  mutable warned_dropped : int;
}

type installed = {
  plan : Run.t;
  collected : collected;
  mutable causal : Causal.t option;  (* the latest boot's collector *)
}

let install plan collected = { plan; collected; causal = None }
let collection () = { traced = []; profiled = []; warned_dropped = 0 }
let current = ref (install Run.default (collection ()))
let current_plan () = !current.plan

let with_plan (plan : Run.t) f =
  let prev = !current in
  (* A nested plan with the same outputs (say, a sweep dropping the core
     override) adds to the enclosing plan's collections, so a sink keeps
     every machine booted while it is installed. *)
  let same_outputs =
    plan.trace_out = prev.plan.trace_out
    && plan.profile_out = prev.plan.profile_out
    && plan.collect_profiles = prev.plan.collect_profiles
  in
  current :=
    install plan (if same_outputs then prev.collected else collection ());
  Fun.protect f ~finally:(fun () ->
      current := prev;
      (* The injection seam and the bus subscription are the only state a
         plan leaves outside its machines: neither may outlive it. *)
      Relocate.chaos_skip_rebase := false;
      if plan.detectors <> [] then Ufork_util.Hb.unsubscribe ())

let set_collect_profiles on =
  let inst = !current in
  current := { inst with plan = { inst.plan with collect_profiles = on } };
  inst.collected.profiled <- []

let profiled_traces () = !current.collected.profiled
let causal_graph () = !current.causal

(* {2 Domain-parallel sweeps}

   [parmap] fans one experiment per sweep point out over OCaml domains.
   Every machine is self-contained (engine, kernel, trace, meter), so
   points never exchange simulated state and each point's result is the
   same bit pattern the serial order produces. A plan that asks for
   anything beyond a core count (sinks, recording, sampling, detectors,
   chaos) funnels per-run state through its installation and the one
   detector bus, so the fan-out silently degrades to serial under it —
   those paths want one machine at a time, and their cost dwarfs any
   sweep parallelism. *)

let parallel_unsafe () = { (current_plan ()) with cores = None } <> Run.default

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

(* Artifact writes create missing parents and turn filesystem failures
   into a clean one-line error — the harness front ends (CLI, bench)
   must never surface a Sys_error backtrace for a bad out-path. *)
let write_artifact path f =
  match Ufork_util.Fsout.with_out path f with
  | Ok () -> ()
  | Error msg ->
      Printf.eprintf "error: %s\n%!" msg;
      exit 1

(* Rewrite the sinks from every machine collected so far; called after
   every run so the files are complete whenever the harness stops. *)
let flush_outputs { plan; collected = c; _ } =
  (match plan.Run.trace_out with
  | None -> ()
  | Some (path, format) ->
      write_artifact path (fun oc ->
          match format with
          | Jsonl ->
              List.iter
                (fun tr -> output_string oc (Trace.to_jsonl_string tr))
                c.traced
          | Chrome ->
              output_string oc
                (Trace.chrome_of_records
                   (List.concat_map Trace.records c.traced)));
      (* The ring drops oldest-first on overflow; a truncated artifact
         must say so rather than pass for a complete recording. *)
      let dropped =
        List.fold_left (fun acc tr -> acc + Trace.dropped tr) 0 c.traced
      in
      if dropped > c.warned_dropped then begin
        c.warned_dropped <- dropped;
        Printf.eprintf
          "warning: trace ring overflowed; %d oldest record%s dropped from %s\n\
           %!"
          dropped
          (if dropped = 1 then "" else "s")
          path
      end);
  match plan.profile_out with
  | None -> ()
  | Some path ->
      write_artifact path (fun oc ->
          List.iter
            (fun tr -> output_string oc (Trace.folded_stacks tr))
            c.profiled)

(* A booted system behind a uniform interface, with the installation it
   was booted under and the end-of-run findings of its armed detectors. *)
type booted = {
  kernel : Kernel.t;
  engine : Engine.t;
  start :
    ?affinity:int -> image:Image.t -> (Api.t -> unit) -> Uproc.t;
  run : ?until:int64 -> unit -> unit;
  installed : installed;
  detected : unit -> Invariant.violation list;
}

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
  Checker.assert_safe
    ~capflow:(List.mem Run.Capflow b.installed.plan.detectors)
    b.kernel;
  (match b.detected () with
  | [] -> ()
  | vs -> raise (Checker.Unsafe (Invariant.report vs)));
  flush_outputs b.installed

let boot_raw ~cores ?config system =
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

(* Fail at the fork that leaked, not at the next sweep: the capflow scan
   wraps the machine's fork hook, so it runs as the fork returns to the
   parent — after any chaos wrapper has planted its capability. *)
let scan_forks k =
  Option.iter
    (fun fork ->
      Kernel.set_fork_hook k (fun parent child_main ->
          let pid = fork parent child_main in
          Option.iter
            (fun child ->
              match Capflow.scan_fork k ~child with
              | [] -> ()
              | vs -> raise (Checker.Unsafe (Invariant.report vs)))
            (Kernel.find_uproc k pid);
          pid))
    (Kernel.fork_hook k)

let boot ?(cores = 4) ?config system =
  let inst = !current in
  let plan = inst.plan in
  let cores = Option.value plan.cores ~default:cores in
  let armed d = List.mem d plan.detectors in
  (* Arm the detectors before boot so image setup and process spawns are
     already on their clocks. The bus carries a single subscriber: one
     closure feeds every armed detector; when none is, the bus from an
     earlier (possibly aborted) checked run must not outlive it. *)
  let rd = if armed Race then Some (Race.create ()) else None in
  let ld = if armed Lockdep then Some (Lockdep.create ()) else None in
  let cd = if armed Causal then Some (Causal.create ()) else None in
  (* The capflow detector needs the kernel, which does not exist yet: its
     handler reads this slot, filled right after boot. The few boot-time
     stores it misses are swept by the final sweep's R4 clause. *)
  let fd = ref None in
  let handlers =
    List.filter_map Fun.id
      [
        Option.map (fun d ev -> Race.handle d ev) rd;
        Option.map (fun d ev -> Lockdep.handle d ev) ld;
        Option.map (fun d ev -> Causal.handle d ev) cd;
        (if armed Capflow then
           Some (fun ev -> Option.iter (fun d -> Capflow.handle d ev) !fd)
         else None);
      ]
  in
  (match handlers with
  | [] -> Ufork_util.Hb.unsubscribe ()
  | [ h ] -> Ufork_util.Hb.subscribe h
  | hs -> Ufork_util.Hb.subscribe (fun ev -> List.iter (fun h -> h ev) hs));
  let sys = boot_raw ~cores ?config system in
  let kernel = System.kernel sys and engine = System.engine sys in
  (* Each planned injection once, in table order; the skip-rebase seam is
     assigned whether armed or not. *)
  Relocate.chaos_skip_rebase := false;
  List.iter
    (fun (c : Chaos.control) ->
      if List.mem c.injection plan.chaos then c.arm kernel)
    Chaos.injections;
  if armed Capflow then begin
    fd := Some (Capflow.create kernel);
    scan_forks kernel
  end;
  (* Boot-time events were stamped 0 (correct: the engine starts there);
     everything after reads the machine's clock. *)
  Option.iter
    (fun c ->
      Causal.set_now c (fun () -> Engine.now engine);
      inst.causal <- Some c)
    cd;
  let tr = Kernel.trace kernel in
  if plan.record || Option.is_some plan.trace_out then
    Trace.set_recording tr true;
  let c = inst.collected in
  if Option.is_some plan.trace_out then c.traced <- c.traced @ [ tr ];
  if plan.collect_profiles || Option.is_some plan.profile_out then
    c.profiled <- c.profiled @ [ tr ];
  Option.iter
    (fun interval -> Kernel.enable_stat_sampling kernel ~interval)
    plan.sample_interval;
  let found f d = Option.fold ~none:[] ~some:f d in
  {
    kernel;
    engine;
    start = (fun ?affinity ~image main -> System.start sys ?affinity ~image main);
    run = (fun ?until () -> System.run ?until sys);
    installed = inst;
    detected =
      (fun () ->
        found Race.violations rd @ found Lockdep.violations ld
        @ found Capflow.violations !fd);
  }

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
