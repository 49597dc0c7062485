(* The four benchmark workloads, driven through the simulator's public
   API only.

   Each workload mirrors the matching function in [Ufork_workload.Experiments]
   call for call (same boot parameters, images, application code and
   order of starts) but hands the application a {!Wrap} api, times the
   layer entry points with {!Hostclock} phases, and verifies its own
   outputs. The test suite pins that the simulated results are the same
   bits the experiment functions produce. All are closed loops. *)

module Units = Ufork_util.Units
module Hb = Ufork_util.Hb
module Engine = Ufork_sim.Engine
module Trace = Ufork_sim.Trace
module Meter = Ufork_sim.Meter
module Histogram = Ufork_sim.Histogram
module Sync = Ufork_sim.Sync
module Config = Ufork_sas.Config
module Image = Ufork_sas.Image
module Kernel = Ufork_sas.Kernel
module Uproc = Ufork_sas.Uproc
module Vfs = Ufork_sas.Vfs
module Api = Ufork_sas.Api
module Strategy = Ufork_core.Strategy
module System = Ufork_core.System
module Os = Ufork_core.Os
module Monolithic = Ufork_baselines.Monolithic
module Vmclone = Ufork_baselines.Vmclone
module Kvstore = Ufork_apps.Kvstore
module Rdb = Ufork_apps.Rdb
module Hello = Ufork_apps.Hello
module Unixbench = Ufork_apps.Unixbench
module Keyspace = Ufork_workload.Keyspace
module Checker = Ufork_analysis.Checker
module H = Hostclock

let names = [ "redis-bgsave"; "fork-storm"; "spawn-context1"; "hello-trio" ]

(* {1 Sizes} *)

type size = {
  redis_entries : int;
  redis_value_len : int;
  storm_cores : int;
  storm_iters : int;
  spawn_iters : int;
  context1_iters : int;
  trios : int;  (** hello trios per repetition *)
}

(* The benchmark's sizes: the paper's 100 MB Redis point, the 512-core
   top point of BENCH_smp.json, Fig. 9's loop counts, and enough hello
   trios that one repetition is not dominated by process start-up. *)
let full =
  {
    redis_entries = 1000;
    redis_value_len = 100 * 1024;
    storm_cores = 512;
    storm_iters = 12;
    spawn_iters = 1000;
    context1_iters = 100_000;
    trios = 60;
  }

(* Seconds-scale sizes for the test suite. *)
let small =
  {
    redis_entries = 20;
    redis_value_len = 100 * 1024;
    storm_cores = 16;
    storm_iters = 4;
    spawn_iters = 50;
    context1_iters = 2_000;
    trios = 2;
  }

let size_params s = function
  | "redis-bgsave" ->
      [ ("entries", s.redis_entries); ("value_len", s.redis_value_len) ]
  | "fork-storm" -> [ ("cores", s.storm_cores); ("iters", s.storm_iters) ]
  | "spawn-context1" ->
      [ ("spawn_iters", s.spawn_iters); ("context1_iters", s.context1_iters) ]
  | "hello-trio" -> [ ("forks_per_machine", 1); ("trios", s.trios) ]
  | w -> invalid_arg ("Workloads.size_params: " ^ w)

(* Redis values are the only input that depends on the seed. *)
let value_seed seed = Int64.(add 0x5eedL (mul 0x9e3779b97f4a7c15L (of_int seed)))

(* {1 Per-repetition context} *)

type flavour = Ufork | Cheribsd | Nephele

let flavour_label = function
  | Ufork -> "uFork/CoPA"
  | Cheribsd -> "CheriBSD"
  | Nephele -> "Nephele"

(* Layer counters summed over every machine of a repetition (traced). *)
type layers = {
  mutable steals : int;
  span_self : (string, int) Hashtbl.t;  (** leaf span name -> self cycles *)
  mutable fork_hist : Histogram.t;
  mutable fault_hist : Histogram.t;
  meters : (string, int) Hashtbl.t;
  mutable caller_lat : int64 list;  (** every flavour's caller fork latency *)
  mutable checked_forks : int;  (** forks paired with their span instance *)
}

type ctx = {
  clock : H.t;
  detail : bool;
  mutable ufork_lat : int64 list;  (** μFork caller fork latencies *)
  mutable ufork_child_mb : float list;
  mutable run_ns : int;
  mutable events : int;
  mutable charged : int64;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable recipe : (flavour * int * Image.t list) list;
      (** every boot (newest first) with the images started on it *)
  layers : layers;
}

let create_ctx ~detail =
  {
    clock = H.create ();
    detail;
    ufork_lat = [];
    ufork_child_mb = [];
    run_ns = 0;
    events = 0;
    charged = 0L;
    attempted = 0;
    failed = 0;
    errors = [];
    recipe = [];
    layers =
      {
        steals = 0;
        span_self = Hashtbl.create 32;
        fork_hist = Histogram.create ();
        fault_hist = Histogram.create ();
        meters = Hashtbl.create 8;
        caller_lat = [];
        checked_forks = 0;
      };
  }

let error ctx fmt = Printf.ksprintf (fun s -> ctx.errors <- s :: ctx.errors) fmt

(* {1 Layer entry points, each behind a phase timer} *)

let boot_system ~cores = function
  | Ufork ->
      Os.system
        (Os.boot ~cores ~config:Config.ufork_fast ~strategy:Strategy.Copa ())
  | Cheribsd -> Monolithic.system (Monolithic.boot ~cores ())
  | Nephele -> Vmclone.system (Vmclone.boot ~cores ())

let boot ctx ?(cores = 4) flavour =
  ctx.recipe <- (flavour, cores, []) :: ctx.recipe;
  H.phase ctx.clock H.boot (fun () -> boot_system ~cores flavour)

let start ctx sys ~image main =
  (match ctx.recipe with
  | (f, c, images) :: rest -> ctx.recipe <- (f, c, image :: images) :: rest
  | [] -> invalid_arg "Workloads.start: no machine booted");
  ignore (H.phase ctx.clock H.start (fun () -> System.start sys ~image main))

(* Set-up alone, replayed after the timed repetition: boot the same
   machines and start the same images (threads that never run). One
   set-up is milliseconds or less, so a repetition measures it several
   times and reports the median. *)
let setup_probe ctx =
  let t0 = H.now_ns () in
  List.iter
    (fun (flavour, cores, images) ->
      let sys = boot_system ~cores flavour in
      List.iter
        (fun image -> ignore (System.start sys ~image (fun _ -> ())))
        (List.rev images))
    (List.rev ctx.recipe);
  H.now_ns () - t0

let setup_probe_budget_ns = 30_000_000
let setup_probe_max = 15

let meter_keys =
  [
    ("page_copy_child", "page_copy_child"); ("page_copy_cow", "page_copy_cow");
    ("page_copy_eager", "page_copy_eager"); ("caps_relocated", "caps_relocated");
    ("granules_scanned", "granules_scanned"); ("pte_copies", "pte_copy");
    ("faults", "fault");
  ]

(* A probe for one machine. In the traced run, every fork is paired with
   the span instance that served it: the "fork" span closes on the
   caller's thread just before the call returns, and its instance's
   service cycles are the step of the span histogram's sum at that
   close. The caller-observed latency can only be larger (it adds
   syscall entry and every wait); a smaller one is an error. *)
let probe ctx sys =
  let p = Wrap.create ~detail:ctx.detail ctx.clock in
  if ctx.detail then begin
    let tr = System.trace sys in
    let served : (int, int64) Hashtbl.t = Hashtbl.create 64 in
    let last_sum = ref 0L in
    Hb.subscribe (function
      | Hb.Span_close { tid; name = "fork" } -> (
          match Trace.span_histogram tr "fork" with
          | Some h ->
              let s = Histogram.sum h in
              Hashtbl.replace served tid (Int64.sub s !last_sum);
              last_sum := s
          | None -> ())
      | _ -> ());
    p.Wrap.after_fork <-
      (fun ~latency ->
        let tid = Hb.tid () in
        match Hashtbl.find_opt served tid with
        | Some service ->
            Hashtbl.remove served tid;
            ctx.layers.checked_forks <- ctx.layers.checked_forks + 1;
            if latency < service then
              error ctx "fork on tid %d: caller latency %Ld < span service %Ld"
                tid latency service
        | None -> error ctx "fork on tid %d: no fork span closed" tid)
  end;
  p

let run ctx sys =
  let t0 = H.now_ns () in
  H.phase ctx.clock H.engine (fun () -> System.run sys);
  ctx.run_ns <- ctx.run_ns + (H.now_ns () - t0);
  if ctx.detail then Hb.unsubscribe ()

let add tbl k v =
  Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let merge_hist tr name h =
  match Trace.span_histogram tr name with
  | Some h' -> Histogram.merge h h'
  | None -> h

(* Accounting audit and state sanitizer (as every experiment run ends),
   then fold the machine's counters into the repetition's totals. *)
let finish ctx sys (p : Wrap.t) ~flavour =
  let k = System.kernel sys and tr = System.trace sys in
  H.phase ctx.clock H.audit (fun () ->
      Trace.audit tr ~costs:(Kernel.costs k)
        ~elapsed:(Engine.advanced (System.engine sys)));
  H.phase ctx.clock H.checker (fun () -> Checker.assert_safe k);
  ctx.events <- ctx.events + Trace.emits tr;
  ctx.charged <- Int64.add ctx.charged (Trace.total_charged tr);
  ctx.attempted <- ctx.attempted + p.Wrap.forks;
  ctx.failed <- ctx.failed + Wrap.failures p;
  if flavour = Ufork then begin
    ctx.ufork_lat <- List.rev_append p.Wrap.latencies ctx.ufork_lat;
    List.iter
      (fun pid ->
        match Kernel.find_uproc k pid with
        | Some u ->
            ctx.ufork_child_mb <-
              Units.mb_of_bytes u.Uproc.private_bytes :: ctx.ufork_child_mb
        | None -> error ctx "child pid %d not in the process table" pid)
      p.Wrap.children
  end;
  if ctx.detail then begin
    let l = ctx.layers in
    l.steals <- l.steals + Engine.steals (System.engine sys);
    List.iter
      (fun (s : Trace.span_total) ->
        match List.rev s.Trace.span_path with
        | leaf :: _ -> add l.span_self leaf (Int64.to_int s.Trace.span_self)
        | [] -> ())
      (Trace.span_totals tr);
    l.fork_hist <- merge_hist tr "fork" l.fork_hist;
    l.fault_hist <- merge_hist tr "fault.service" l.fault_hist;
    List.iter
      (fun (name, key) -> add l.meters name (Meter.get (System.meter sys) key))
      meter_keys;
    l.caller_lat <- List.rev_append p.Wrap.latencies l.caller_lat
  end

(* A machine that forks once, uncontended: the caller waits for nothing
   but service, so its latency is exactly the instance total of the
   "syscall.fork" span (syscall entry + fork), and the fork hook's own
   latency gauge is exactly the "fork" span instance nested in it. The
   gauge therefore reads lower than the caller by the syscall entry. *)
let check_single_fork ctx sys (p : Wrap.t) ~what =
  let tr = System.trace sys in
  let instance name =
    match Trace.span_histogram tr name with
    | Some h when Histogram.count h = 1 -> Some (Histogram.sum h)
    | Some _ | None -> None
  in
  match (p.Wrap.latencies, instance "syscall.fork", instance "fork") with
  | [ lat ], Some call, Some spine ->
      if lat <> call then
        error ctx "%s: caller fork latency %Ld <> syscall.fork span %Ld" what
          lat call;
      let gauge = System.last_fork_latency sys in
      if gauge <> spine then
        error ctx "%s: last_fork_latency %Ld <> fork span %Ld" what gauge spine
  | l, _, _ -> error ctx "%s: expected one fork, saw %d" what (List.length l)

(* {1 Workloads} *)

type result = {
  sim_ms : float;  (** simulated time of the workload's timed windows *)
  extra : (string * float * string) list;  (** workload-specific figures *)
  measured : (string * float) list;  (** values compared with the paper *)
}

(* redis-bgsave: populate the keyspace, BGSAVE through fork, verify the
   dump. [heap_bytes] overrides the static-heap reservation (the failure
   test undersizes it). *)
let redis_bgsave ctx size ~seed ?heap_bytes () =
  let entries = size.redis_entries and value_len = size.redis_value_len in
  let db_bytes = entries * value_len in
  let heap_bytes =
    match heap_bytes with
    | Some h -> h
    | None -> max (4 * 1024 * 1024) (db_bytes * 137 / 100)
  in
  let seed = value_seed seed in
  let sys = boot ctx Ufork in
  let p = probe ctx sys in
  let result = ref None in
  start ctx sys ~image:(Image.redis ~heap_bytes)
    (Wrap.main p (fun api ->
         let store = Kvstore.create api ~buckets:1024 () in
         Keyspace.populate store ~entries ~value_len ~seed;
         result := Some (Rdb.bgsave api store ~path:"/dump.rdb")));
  run ctx sys;
  finish ctx sys p ~flavour:Ufork;
  (* The dump is the operation's output: one more attempted operation,
     failed unless every entry reads back exactly. *)
  ctx.attempted <- ctx.attempted + 1;
  let dump_ok =
    H.phase ctx.clock H.verify (fun () ->
        match Vfs.contents (Kernel.vfs (System.kernel sys)) "/dump.rdb" with
        | exception Not_found -> false
        | contents -> (
            match Rdb.verify contents with
            | exception Failure _ -> false
            | got ->
                let seen = Array.make entries false in
                List.length got = entries
                && List.for_all
                     (fun (key, v) ->
                       match
                         int_of_string_opt
                           (String.sub key 4 (String.length key - 4))
                       with
                       | Some i
                         when i >= 0 && i < entries && (not seen.(i))
                              && Keyspace.key i = key ->
                           seen.(i) <- true;
                           Bytes.equal v
                             (Keyspace.value ~seed ~index:i ~len:value_len)
                       | Some _ | None -> false
                       | exception Invalid_argument _ -> false)
                     got))
  in
  if not dump_ok then ctx.failed <- ctx.failed + 1;
  match !result with
  | None ->
      error ctx "redis-bgsave: BGSAVE never completed";
      { sim_ms = nan; extra = []; measured = [] }
  | Some r ->
      check_single_fork ctx sys p ~what:"redis-bgsave";
      (match p.Wrap.latencies with
      | [ lat ] when lat <> r.Rdb.fork_latency_cycles ->
          error ctx "redis-bgsave: wrapper and Rdb disagree on fork latency"
      | _ -> ());
      let save_ms = Units.ms_of_cycles r.Rdb.total_cycles in
      let fork_us = Units.us_of_cycles r.Rdb.fork_latency_cycles in
      let child_mb =
        match Kernel.find_uproc (System.kernel sys) r.Rdb.child_pid with
        | Some u -> Units.mb_of_bytes u.Uproc.private_bytes
        | None -> nan
      in
      {
        sim_ms = save_ms;
        extra = [ ("save_ms", save_ms, "sim_ms") ];
        measured =
          [ ("save_ms", save_ms); ("fork_us", fork_us); ("child_mb", child_mb) ];
      }

(* fork-storm: one forker per simulated core, each forking and reaping
   [iters] children that dirty two pages. A fork that fails is counted
   by the wrapper and the forker moves on to its next iteration. *)
let fork_storm ctx size =
  let cores = size.storm_cores and iters = size.storm_iters in
  let sys = boot ctx ~cores Ufork in
  let p = probe ctx sys in
  let page = 4096 in
  let forks = ref 0 in
  for _ = 1 to cores do
    start ctx sys ~image:Image.hello
      (Wrap.main p (fun api ->
           let cell = api.Api.malloc (2 * page) in
           api.Api.write_u64 cell ~off:0 0L;
           api.Api.got_set 0 cell;
           for _ = 1 to iters do
             match
               api.Api.fork (fun capi ->
                   let c = capi.Api.got_get 0 in
                   capi.Api.write_u64 c ~off:0 1L;
                   capi.Api.write_u64 c ~off:page 2L;
                   capi.Api.exit 0)
             with
             | exception Api.Sys_error _ -> ()
             | _pid ->
                 ignore (api.Api.wait ());
                 api.Api.write_u64 cell ~off:0 3L;
                 incr forks
           done))
  done;
  run ctx sys;
  finish ctx sys p ~flavour:Ufork;
  let elapsed = Engine.now (System.engine sys) in
  let elapsed_s = Units.s_of_cycles elapsed in
  let forks_per_s =
    if elapsed_s > 0. then float_of_int !forks /. elapsed_s else 0.
  in
  {
    sim_ms = Units.ms_of_cycles elapsed;
    extra =
      [
        ("forks_per_s", forks_per_s, "1/sim_s");
        ("forks", float_of_int !forks, "count");
      ];
    measured = [];
  }

(* spawn-context1: Fig. 9's Unixbench Spawn loop and Context1 pipe
   ping-pong, each on its own freshly booted machine. *)
let spawn_context1 ctx size =
  let machine body =
    let sys = boot ctx Ufork in
    let p = probe ctx sys in
    let out = ref None in
    start ctx sys ~image:Image.hello
      (Wrap.main p (fun api -> out := Some (body api)));
    run ctx sys;
    finish ctx sys p ~flavour:Ufork;
    !out
  in
  let spawn =
    machine (fun api -> Unixbench.spawn api ~iterations:size.spawn_iters)
  in
  let ctx1 =
    machine (fun api ->
        (Unixbench.context1 api ~iterations:size.context1_iters)
          .Unixbench.total_cycles)
  in
  match (spawn, ctx1) with
  | Some s, Some c ->
      (* Fig. 9 is per 1000 spawns and per 100k round trips. *)
      let spawn_ms =
        Units.ms_of_cycles s *. 1000. /. float_of_int size.spawn_iters
      in
      let context1_ms =
        Units.ms_of_cycles c *. 100_000. /. float_of_int size.context1_iters
      in
      {
        sim_ms = Units.ms_of_cycles s +. Units.ms_of_cycles c;
        extra =
          [
            ("spawn_ms", spawn_ms, "sim_ms"); ("context1_ms", context1_ms, "sim_ms");
          ];
        measured = [ ("spawn_ms", spawn_ms); ("context1_ms", context1_ms) ];
      }
  | _ ->
      error ctx "spawn-context1: a Unixbench loop never completed";
      { sim_ms = nan; extra = []; measured = [] }

(* hello-trio: a fresh μFork, CheriBSD and Nephele machine, one hello
   fork + reap on each, audited and sanitized; [trios] times. *)
let hello_trio ctx size =
  let sim_ms = ref 0. and measured = ref [] in
  for trio = 1 to size.trios do
    List.iter
      (fun flavour ->
        let sys = boot ctx flavour in
        let p = probe ctx sys in
        let sample = ref None in
        start ctx sys ~image:Image.hello
          (Wrap.main p (fun api ->
               let s = Hello.fork_once api in
               sample := Some s;
               Hello.reap api));
        run ctx sys;
        finish ctx sys p ~flavour;
        let label = flavour_label flavour in
        check_single_fork ctx sys p ~what:("hello-trio " ^ label);
        match !sample with
        | None -> error ctx "hello-trio %s: process never completed" label
        | Some s ->
            let child_mb =
              match Kernel.find_uproc (System.kernel sys) s.Hello.child_pid with
              | Some u -> Units.mb_of_bytes u.Uproc.private_bytes
              | None -> nan
            in
            let values =
              [
                ("fork_us/" ^ label, Units.us_of_cycles s.Hello.latency_cycles);
                ("child_mb/" ^ label, child_mb);
              ]
            in
            (* Every trio is the same simulation; a later one that
               differs from the first is nondeterminism. *)
            if trio = 1 then begin
              sim_ms :=
                !sim_ms +. Units.ms_of_cycles (Engine.now (System.engine sys));
              measured := !measured @ values
            end
            else if
              List.exists (fun (k, v) -> List.assoc_opt k !measured <> Some v) values
            then error ctx "hello-trio %s: trio %d differs from trio 1" label trio)
      [ Ufork; Cheribsd; Nephele ]
  done;
  { sim_ms = !sim_ms; extra = []; measured = !measured }

(* {1 One repetition} *)

type outcome = {
  workload : string;
  host_s : float;
  setup_s : float;
  peak_rss_mb : float;  (** before the set-up probes *)
  attempted : int;
  failed : int;
  errors : string list;
  e2e : (string * float * string) list;  (** simulated end-to-end metrics *)
  extra : (string * float * string) list;
  measured : (string * float) list;  (** values compared with the paper *)
  sim_events : int;  (** [Trace.emits] summed over the machines *)
  sim_charged : int64;  (** [Trace.total_charged] summed likewise *)
  layers : (string * float * string) list;  (** traced run only *)
}

let sorted l = List.sort compare l |> Array.of_list

let median_f l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of cycle counts, in µs. *)
let percentile_us p l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else
    let i = max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)) in
    Units.us_of_cycles a.(i)

let layer_metrics ctx =
  let c = ctx.clock and l = ctx.layers in
  let ms b = float_of_int (H.ns c b) /. 1e6 in
  let run_s = float_of_int ctx.run_ns /. 1e9 in
  let span name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt l.span_self name)) in
  let hist_p99 h =
    if Histogram.is_empty h then 0. else Units.us_of_cycles (Histogram.quantile h 0.99)
  in
  let contention = Sync.lock_contention () in
  let lock_rows pred =
    List.fold_left
      (fun (a, w) (r : Sync.contention) ->
        if pred r.Sync.lock then (a + r.Sync.acquires, w + r.Sync.waits) else (a, w))
      (0, 0) contention
  in
  let sync name pred =
    let a, w = lock_rows pred in
    [
      ("sync." ^ name ^ ".acquires", float_of_int a, "count");
      ( "sync." ^ name ^ ".wait_pct",
        (if a = 0 then 0. else 100. *. float_of_int w /. float_of_int a),
        "%" );
    ]
  in
  let api_time =
    List.map
      (fun b -> (H.names.(b) ^ ".host_us", float_of_int (H.ns c b) /. 1e3, "us"))
      H.api_classes
  in
  let words =
    List.map
      (fun b -> (H.names.(b) ^ ".alloc_words", H.words c b, "words"))
      ([ H.boot; H.start; H.engine; H.app ] @ H.api_classes
      @ [ H.checker; H.audit; H.verify ])
  in
  let phases = [ H.boot; H.start; H.app; H.checker; H.audit; H.verify ] @ H.api_classes in
  let attributed = List.fold_left (fun acc b -> acc + H.ns c b) 0 phases in
  let gc = Gc.quick_stat () in
  [
    ("system.boot.host_ms", ms H.boot, "ms");
    ("system.start.host_ms", ms H.start, "ms");
    ("system.run.host_s", run_s, "s");
    ("sim.events", float_of_int ctx.events, "count");
    ( "trace.events_per_host_s",
      (if run_s > 0. then float_of_int ctx.events /. run_s else 0.),
      "1/s" );
    ("engine.steals", float_of_int l.steals, "count");
    ("api.fork.calls", float_of_int (H.calls c H.api_fork), "count");
  ]
  @ api_time
  @ sync "uproc_table" (( = ) "lock.uproc_table")
  @ sync "frame_pool" (( = ) "lock.frame_pool")
  @ sync "pt_shard" (String.starts_with ~prefix:"lock.pt_shard")
  @ sync "fd_tables" (( = ) "lock.fd_tables")
  @ List.map
      (fun s -> ("span." ^ s ^ ".self_cycles", span s, "cycles"))
      [
        "fork.fixed"; "fork.uproc_create"; "fork.duplicate"; "fork.post_copy";
        "fork.spawn"; "fork.child_prologue"; "page_copy"; "pte_copy";
        "reloc.scan"; "fault.service";
      ]
  @ [
      ("span.fork.service_p99_us", hist_p99 l.fork_hist, "sim_us");
      ("api.fork.caller_p99_us", percentile_us 0.99 l.caller_lat, "sim_us");
      ("span.fault.service_p99_us", hist_p99 l.fault_hist, "sim_us");
      ("check.forks_paired", float_of_int l.checked_forks, "count");
    ]
  @ List.map
      (fun (name, _) ->
        ( "meter." ^ name,
          float_of_int (Option.value ~default:0 (Hashtbl.find_opt l.meters name)),
          "count" ))
      meter_keys
  @ [
      ("checker.sweep.host_ms", ms H.checker, "ms");
      ("trace.audit.host_ms", ms H.audit, "ms");
      ("app.host_s", float_of_int (H.ns c H.app) /. 1e9, "s");
      ("rdb.verify.host_ms", ms H.verify, "ms");
      ( "host.unattributed_ms",
        float_of_int (H.elapsed_ns c - attributed) /. 1e6,
        "ms" );
      ("traced.host_s", float_of_int (H.elapsed_ns c) /. 1e9, "s");
    ]
  @ words
  @ [
      ("gc.major_collections", float_of_int gc.Gc.major_collections, "count");
      ( "gc.top_heap_mb",
        float_of_int (gc.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6,
        "MB" );
    ]

let run_one ~detail ~seed ?heap_bytes size workload =
  Sync.reset_lock_contention ();
  let ctx = create_ctx ~detail in
  let res =
    match workload with
    | "redis-bgsave" -> redis_bgsave ctx size ~seed ?heap_bytes ()
    | "fork-storm" -> fork_storm ctx size
    | "spawn-context1" -> spawn_context1 ctx size
    | "hello-trio" -> hello_trio ctx size
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  H.stop ctx.clock;
  let c = ctx.clock in
  let layers = if detail then layer_metrics ctx else [] in
  let peak_rss_mb = H.peak_rss_mb () in
  let setups =
    let rec probe acc n spent =
      if n >= setup_probe_max || (n >= 2 && spent >= setup_probe_budget_ns)
      then acc
      else
        let dt = setup_probe ctx in
        probe (float_of_int dt :: acc) (n + 1) (spent + dt)
    in
    probe [ float_of_int (H.ns c H.boot + H.ns c H.start) ] 0 0
  in
  let e2e =
    [
      ("fork_us", median_f (List.map Units.us_of_cycles ctx.ufork_lat), "sim_us");
      ("fork_p99_us", percentile_us 0.99 ctx.ufork_lat, "sim_us");
      ("sim_ms", res.sim_ms, "sim_ms");
      ("child_mb", median_f ctx.ufork_child_mb, "sim_MB");
    ]
  in
  let paper =
    match
      Reference.err_pct ~workload ~size:(size_params size workload) res.measured
    with
    | Some e -> [ ("paper_err_pct", e, "%") ]
    | None -> []
  in
  {
    workload;
    host_s = float_of_int (H.elapsed_ns c) /. 1e9;
    setup_s = median_f setups /. 1e9;
    peak_rss_mb;
    attempted = ctx.attempted;
    failed = ctx.failed;
    errors = List.rev ctx.errors;
    e2e;
    extra = res.extra @ paper;
    measured = res.measured;
    sim_events = ctx.events;
    sim_charged = ctx.charged;
    layers;
  }
