(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§5) and prints paper-vs-measured rows. Run everything:

     dune exec bench/main.exe

   or a single experiment:

     dune exec bench/main.exe -- fig4 fig8

   Available targets: table1 survey fig3 fig4 fig5 fig6 fig7 fig8 fig9
   toctou ablate-proactive ablate-entry ablate-isolation smp events all
   quick (= all with reduced sizes/windows). The smp target sweeps
   --cores-sweep and writes BENCH_smp.json. *)

module Table = Ufork_util.Table
module Units = Ufork_util.Units
module Config = Ufork_sas.Config
module Strategy = Ufork_core.Strategy
module E = Ufork_workload.Experiments
module Keyspace = Ufork_workload.Keyspace

let section title =
  Printf.printf "\n=== %s ===\n%!" title

let note fmt = Printf.printf fmt

let f1 v = Table.fmt_f ~dec:1 v
let f2 v = Table.fmt_f ~dec:2 v

(* Reduced problem sizes for `quick`. *)
let quick = ref false

(* Domain fan-out for the sweep targets (fig6, redis, smp): each sweep
   point boots its own machine, so E.parmap keeps results bit-identical
   to the serial order whatever this is set to. *)
let jobs = ref 1

let redis_sizes () =
  if !quick then [ ("100 KB", 1, 100 * 1024); ("10 MB", 100, 100 * 1024) ]
  else Keyspace.db_sizes_extended

let window_s () = if !quick then 0.25 else 1.0
let spawn_iters () = if !quick then 200 else 1000
let context1_iters () = if !quick then 20_000 else 100_000

(* ------------------------------------------------------------------ *)
(* Table 1: design-space comparison of SASOS fork systems.             *)

let table1 () =
  section "Table 1: SASOS fork systems (qualitative)";
  Table.print
    ~header:[ "System"; "SAS"; "Isolation"; "SC"; "IPCs"; "Seg"; "f+e only" ]
    [
      [ "Angel"; "Yes"; "Yes"; "Yes"; "Fast"; "Yes"; "No" ];
      [ "Mungi"; "Yes"; "Yes"; "Yes"; "Fast"; "Yes"; "No" ];
      [ "Nephele"; "No"; "Yes"; "No"; "Med"; "No"; "No" ];
      [ "KylinX"; "No"; "Yes"; "No"; "Med"; "No"; "No" ];
      [ "Graphene"; "No"; "Yes"; "No"; "Med"; "No"; "No" ];
      [ "Graphene SGX"; "No"; "Yes"; "No"; "Slow"; "No"; "No" ];
      [ "Iso-Unik"; "No"; "Yes"; "Yes"; "Med"; "No"; "No" ];
      [ "OSv"; "Yes"; "No"; "Yes"; "Fast"; "No"; "Yes" ];
      [ "Junction"; "Yes"; "No"; "No"; "Med"; "No"; "Yes" ];
      [ "uFork (this work)"; "Yes"; "Yes"; "Yes"; "Fast"; "No"; "No" ];
    ]

(* §2.1 survey numbers. *)
let survey () =
  section "Survey (§2.1): fork usage in popular software";
  Table.print
    ~header:[ "Population"; "Sample"; "Using fork" ]
    [
      [ "Most popular C repositories on GitHub"; "50"; "46%" ];
      [ "Most popular Debian packages (popcon)"; "50"; "50%" ];
    ];
  note "Usage patterns: U1 fork+exec, U2 concurrency, U3 privilege\n";
  note "separation, U4 copy-on-write, U5 startup time, U6 daemonize.\n"

(* ------------------------------------------------------------------ *)
(* Fig. 1 and Fig. 2: the design figures, reproduced as live page-state
   walkthroughs on a real forked pair.                                  *)

module Fig12 = struct
  module Addr = Ufork_mem.Addr
  module Pte = Ufork_mem.Pte
  module Page_table = Ufork_mem.Page_table
  module Uproc = Ufork_sas.Uproc
  module Kernel = Ufork_sas.Kernel
  module Api = Ufork_sas.Api
  module Image = Ufork_sas.Image
  module Os = Ufork_core.Os
  module Meter = Ufork_sim.Meter

  let page_state (pte : Pte.t) =
    match pte.Pte.share with
    | Pte.Private -> if pte.Pte.write then "private rw" else "private r-x"
    | Pte.Cow_shared -> "shared CoW (copy on write)"
    | Pte.Copa_shared -> "shared CoPA (copy on write/ptr-load)"
    | Pte.Coa_shared -> "shared CoA (copy on any access)"
    | Pte.Shm_shared -> "shm (deliberately shared)"

  (* Render a region as runs of identical page states. *)
  let region_runs (u : Uproc.t) base bytes =
    let vpn0 = Addr.vpn_of_addr base in
    let count = Addr.bytes_to_pages bytes in
    let states =
      List.init count (fun i ->
          match Page_table.lookup u.Uproc.pt ~vpn:(vpn0 + i) with
          | None -> "unmapped (demand)"
          | Some pte -> page_state pte)
    in
    let rec runs acc current n = function
      | [] -> List.rev ((current, n) :: acc)
      | s :: rest ->
          if s = current then runs acc current (n + 1) rest
          else runs ((current, n) :: acc) s 1 rest
    in
    match states with [] -> [] | s :: rest -> runs [] s 1 rest

  let print_uproc label (u : Uproc.t) =
    note "%s  (area [%#x, +%d MB), pid %d)\n" label u.Uproc.area_base
      (u.Uproc.area_bytes / 1_048_576 |> max 1)
      u.Uproc.pid;
    let r = u.Uproc.regions in
    List.iter
      (fun (name, base, bytes) ->
        let runs = region_runs u base bytes in
        let runs_s =
          String.concat ", "
            (List.map (fun (s, n) -> Printf.sprintf "%d page(s) %s" n s) runs)
        in
        note "  %-6s @%#x: %s\n" name base runs_s)
      [
        ("GOT", r.Uproc.got_base, r.Uproc.got_bytes);
        ("code", r.Uproc.code_base, r.Uproc.code_bytes);
        ("data", r.Uproc.data_base, r.Uproc.data_bytes);
        ("stack", r.Uproc.stack_base, r.Uproc.stack_bytes);
        ("meta", r.Uproc.meta_base, r.Uproc.meta_bytes);
        ("heap", r.Uproc.heap_base, r.Uproc.heap_bytes);
      ]

  (* A small forked pair with a capability-bearing heap, frozen at
     interesting moments. [scenario] drives the child/parent accesses. *)
  let run () =
    let os = Os.boot () in
    let kernel = Os.kernel os in
    let meter = Kernel.meter kernel in
    let child_pid = ref 0 in
    let _ =
      Os.start os
        ~image:
          (Image.make ~code_bytes:(16 * 1024) ~data_bytes:(8 * 1024)
             ~stack_bytes:(16 * 1024) ~heap_bytes:(64 * 1024) "fig")
        (fun api ->
          (* Build state: raw data page + pointer-bearing page. *)
          let data = api.Api.malloc 4096 in
          api.Api.write_bytes data ~off:0 (Bytes.make 64 'd');
          let ptrs = api.Api.malloc 4096 in
          api.Api.store_cap ptrs ~off:0 data;
          api.Api.got_set 0 ptrs;
          api.Api.got_set 1 data;
          let rfd, wfd = api.Api.pipe () in
          let pid =
            api.Api.fork (fun capi ->
                (* Step (1): freeze right after fork. *)
                ignore (capi.Api.read rfd 1);
                (* (B) the child loads a pointer -> that page is copied
                   and the pointer relocated. *)
                let ptrs' = capi.Api.got_get 0 in
                let data' = capi.Api.load_cap ptrs' ~off:0 in
                ignore (capi.Api.read_bytes data' ~off:0 ~len:8);
                ignore (capi.Api.read rfd 1);
                (* (A) the child writes a page. *)
                capi.Api.write_bytes data' ~off:0 (Bytes.make 8 'c');
                ignore (capi.Api.read rfd 1);
                capi.Api.exit 0)
          in
          child_pid := pid;
          let child () = Option.get (Kernel.find_uproc kernel pid) in
          let self () =
            Option.get (Kernel.find_uproc kernel (api.Api.getpid ()))
          in
          note "\n-- (1) right after fork: child mapped onto parent pages --\n";
          print_uproc "PARENT" (self ());
          print_uproc "CHILD " (child ());
          let copies () =
            Meter.get meter "page_copy_child" + Meter.get meter "claim_in_place"
          in
          let c0 = copies () and r0 = Meter.get meter "caps_relocated" in
          ignore (api.Api.write wfd (Bytes.of_string "g"));
          api.Api.sleep 200_000L;
          note
            "\n-- (2) after the child loads a pointer (event B of Fig. 2): \
             %d page copied, %d capability relocated --\n"
            (copies () - c0)
            (Meter.get meter "caps_relocated" - r0);
          print_uproc "CHILD " (child ());
          let c1 = copies () in
          ignore (api.Api.write wfd (Bytes.of_string "g"));
          api.Api.sleep 200_000L;
          note "\n-- (3) after the child writes (event A): %d more copy --\n"
            (copies () - c1);
          (* (C) the parent writes a still-shared page: its own copy. *)
          let cow0 = Meter.get meter "page_copy_cow"
                     + Meter.get meter "cow_claim_in_place" in
          let mine = api.Api.got_get 1 in
          api.Api.write_bytes mine ~off:32 (Bytes.make 8 'p');
          note "-- (4) the parent writes a shared page (event C): %d \
                parent-side CoW resolution --\n"
            (Meter.get meter "page_copy_cow"
            + Meter.get meter "cow_claim_in_place" - cow0);
          ignore (api.Api.write wfd (Bytes.of_string "g"));
          ignore (api.Api.wait ()))
    in
    Os.run os
end

let fig1_fig2 () =
  section "Fig. 1 + Fig. 2: memory layout of uFork and CoPA in operation";
  Fig12.run ();
  note
    "\nFig. 1's (1)/(2): the child starts mapped onto the parent's pages\n\
     and pages with absolute references are copied+relocated on access.\n\
     Fig. 2's events: (A) child write, (B) child pointer load, (C) parent\n\
     write each trigger exactly one copy; GOT and allocator metadata were\n\
     copied proactively at fork.\n"

(* ------------------------------------------------------------------ *)
(* Redis figures.                                                      *)

let redis_rows = ref ([] : E.redis_row list)

let redis_systems =
  [
    E.Ufork Strategy.Copa;
    E.Ufork Strategy.Coa;
    E.Ufork Strategy.Full_copy;
    E.Ufork_toctou Strategy.Copa;
    E.Cheribsd;
    E.Linux_ref;
  ]

let ensure_redis () =
  if !redis_rows = [] then
    redis_rows :=
      E.redis_sweep ~systems:redis_systems ~sizes:(redis_sizes ())
        ~jobs:!jobs ()

let rows_for sys =
  List.filter (fun (r : E.redis_row) -> r.E.system = sys) !redis_rows

let fig3 () =
  ensure_redis ();
  section "Fig. 3: Redis DB overall save times (ms)";
  let labels = List.map (fun (l, _, _) -> l) (redis_sizes ()) in
  let row sys =
    E.system_label sys
    :: List.map
         (fun l ->
           match
             List.find_opt (fun (r : E.redis_row) -> r.E.db_label = l)
               (rows_for sys)
           with
           | Some r -> f1 r.E.save_ms
           | None -> "-")
         labels
  in
  Table.print
    ~header:("System (save ms)" :: labels)
    [ row (E.Ufork Strategy.Copa); row (E.Ufork_toctou Strategy.Copa);
      row E.Cheribsd ];
  note
    "Paper: uFork 1.9x faster than CheriBSD at 100 KB (1.8 vs 3.4 ms),\n\
     1.4x at 100 MB (109 vs 158 ms). All dumps verified: %b\n"
    (List.for_all (fun (r : E.redis_row) -> r.E.dump_ok) !redis_rows)

let fig4 () =
  ensure_redis ();
  section "Fig. 4: Redis fork latency (us)";
  let labels = List.map (fun (l, _, _) -> l) (redis_sizes ()) in
  let row sys =
    E.system_label sys
    :: List.map
         (fun l ->
           match
             List.find_opt (fun (r : E.redis_row) -> r.E.db_label = l)
               (rows_for sys)
           with
           | Some r -> f1 r.E.fork_us
           | None -> "-")
         labels
  in
  Table.print
    ~header:("System (fork us)" :: labels)
    [
      row (E.Ufork Strategy.Copa);
      row (E.Ufork Strategy.Coa);
      row (E.Ufork Strategy.Full_copy);
      row (E.Ufork_toctou Strategy.Copa);
      row E.Cheribsd;
    ];
  (match
     ( List.find_opt (fun (r : E.redis_row) -> r.E.db_label = "100 MB")
         (rows_for (E.Ufork Strategy.Copa)),
       List.find_opt (fun (r : E.redis_row) -> r.E.db_label = "100 MB")
         (rows_for (E.Ufork Strategy.Full_copy)),
       List.find_opt (fun (r : E.redis_row) -> r.E.db_label = "100 MB")
         (rows_for E.Cheribsd) )
   with
  | Some copa, Some full, Some bsd ->
      note
        "Measured at 100 MB: CheriBSD/CoPA = %sx (paper 5-10x); \
         full/CoPA = %sx (paper up to 89x)\n"
        (f1 (bsd.E.fork_us /. copa.E.fork_us))
        (f1 (full.E.fork_us /. copa.E.fork_us))
  | _ -> ());
  note "Paper: CoPA 260 us, CoA 283 us, full copy 23.2 ms at 100 MB;\n\
        TOCTTOU cost 2.6%% at 100 MB.\n"

let fig5 () =
  ensure_redis ();
  section "Fig. 5: Redis forked-process memory (MB)";
  let labels = List.map (fun (l, _, _) -> l) (redis_sizes ()) in
  let row sys =
    E.system_label sys
    :: List.map
         (fun l ->
           match
             List.find_opt (fun (r : E.redis_row) -> r.E.db_label = l)
               (rows_for sys)
           with
           | Some r -> f2 r.E.child_mb
           | None -> "-")
         labels
  in
  Table.print
    ~header:("System (child MB)" :: labels)
    [
      row (E.Ufork Strategy.Copa);
      row (E.Ufork Strategy.Coa);
      row (E.Ufork Strategy.Full_copy);
      row E.Cheribsd;
      row E.Linux_ref;
    ];
  note
    "Paper at 100 MB: CoPA 6, CoA 101, full 144, CheriBSD 56, Linux 7 MB.\n"

(* ------------------------------------------------------------------ *)

let fig6 () =
  section "Fig. 6: FaaS function throughput (functions/s)";
  let systems =
    [ E.Ufork Strategy.Copa; E.Ufork_toctou Strategy.Copa; E.Cheribsd ]
  in
  let cores = [ 1; 2; 3 ] in
  (* Flat (system, cores) points for the domain fan-out, regrouped per
     system below — same row order as the nested serial map. *)
  let points =
    List.concat_map (fun sys -> List.map (fun c -> (sys, c)) cores) systems
  in
  let thr =
    E.parmap ~jobs:!jobs
      (fun (sys, c) ->
        (E.faas_run sys ~worker_cores:c ~window_s:(window_s ()) ())
          .E.throughput_per_s)
      points
  in
  let results =
    List.map
      (fun sys ->
        ( sys,
          List.filter_map
            (fun ((s, _), v) -> if s = sys then Some v else None)
            (List.combine points thr) ))
      systems
  in
  Table.print
    ~header:
      ("System (fn/s)" :: List.map (fun c -> Printf.sprintf "%d cores" c) cores)
    (List.map
       (fun (sys, thr) -> E.system_label sys :: List.map (fun v -> f1 v) thr)
       results);
  (match (List.assoc_opt (E.Ufork Strategy.Copa) results,
          List.assoc_opt E.Cheribsd results) with
  | Some u, Some b ->
      let u3 = List.nth u 2 and b3 = List.nth b 2 in
      note "Measured uFork advantage at 3 cores: +%s%% (paper: +24%%)\n"
        (f1 ((u3 /. b3 -. 1.) *. 100.))
  | _ -> ())

let fig7 () =
  section "Fig. 7: Nginx throughput (requests/s)";
  let w = window_s () in
  let ufork_rows =
    List.map
      (fun workers ->
        let r =
          E.nginx_run (E.Ufork Strategy.Copa) ~cores:1 ~workers ~window_s:w ()
        in
        [ Printf.sprintf "uFork 1 core, %d worker(s)" workers;
          f1 r.E.requests_per_s ])
      [ 1; 2; 3 ]
  in
  let toctou =
    let r =
      E.nginx_run (E.Ufork_toctou Strategy.Copa) ~cores:1 ~workers:3
        ~window_s:w ()
    in
    [ "uFork+TOCTTOU 1 core, 3 workers"; f1 r.E.requests_per_s ]
  in
  let bsd1 = E.nginx_run E.Cheribsd ~cores:1 ~workers:3 ~window_s:w () in
  let bsd3 = E.nginx_run E.Cheribsd ~cores:3 ~workers:3 ~window_s:w () in
  Table.print
    ~header:[ "Configuration"; "req/s" ]
    (ufork_rows
    @ [ toctou;
        [ "CheriBSD 1 core, 3 workers"; f1 bsd1.E.requests_per_s ];
        [ "CheriBSD 3 cores, 3 workers"; f1 bsd3.E.requests_per_s ];
      ]);
  note
    "Paper: +15.6%% for uFork 1->3 workers on one core; uFork +9%% over\n\
     single-core CheriBSD; CheriBSD wins across multiple cores;\n\
     TOCTTOU costs 6.5%%.\n"

let fig8 () =
  section "Fig. 8: hello-world fork latency and per-process memory";
  let rows = E.fig8 () in
  Table.print
    ~header:[ "System"; "fork latency"; "paper"; "child mem (MB)"; "paper" ]
    (List.map
       (fun (r : E.hello_row) ->
         let paper_lat, paper_mem =
           match r.E.system with
           | E.Ufork _ -> ("54 us", "0.13")
           | E.Cheribsd -> ("197 us", "0.29")
           | E.Nephele -> ("10.7 ms", "1.6")
           | E.Ufork_toctou _ | E.Linux_ref -> ("-", "-")
         in
         let lat =
           if r.E.fork_latency_us > 1000. then
             f2 (r.E.fork_latency_us /. 1000.) ^ " ms"
           else f1 r.E.fork_latency_us ^ " us"
         in
         [ E.system_label r.E.system; lat; paper_lat;
           f2 r.E.child_memory_mb; paper_mem ])
       rows)

(* Not a paper figure: Unixbench Pipe, since fast pipes are exactly the
   IPC benefit the paper claims for single address spaces. *)
let pipe_rate system =
  let module Image = Ufork_sas.Image in
  let module Api = Ufork_sas.Api in
  let module Os = Ufork_core.Os in
  let module Mono = Ufork_baselines.Monolithic in
  let module Unixbench = Ufork_apps.Unixbench in
  let iterations = if !quick then 2_000 else 20_000 in
  let out = ref 0. in
  let main api = out := Unixbench.pipe_throughput api ~iterations in
  (match system with
  | `Ufork ->
      let os = Os.boot () in
      ignore (Os.start os ~image:Image.hello main);
      Os.run os
  | `Cheribsd ->
      let os = Mono.boot () in
      ignore (Mono.start os ~image:Image.hello main);
      Mono.run os);
  !out

let fig9 () =
  section "Fig. 9: Unixbench Spawn and Context1";
  let rows = E.fig9 ~spawn_iters:(spawn_iters ()) ~context1_iters:(context1_iters ()) () in
  let scale_s = 1000. /. float_of_int (spawn_iters ()) in
  let scale_c = 100_000. /. float_of_int (context1_iters ()) in
  Table.print
    ~header:
      [ "System"; "Spawn 1000 (ms)"; "paper"; "Context1 100k (ms)"; "paper" ]
    (List.map
       (fun (r : E.unixbench_row) ->
         let paper_s, paper_c =
           match r.E.system with
           | E.Ufork _ -> ("56", "245")
           | E.Cheribsd -> ("198", "419")
           | E.Ufork_toctou _ | E.Nephele | E.Linux_ref -> ("-", "-")
         in
         [ E.system_label r.E.system;
           f1 (r.E.spawn_ms *. scale_s); paper_s;
           f1 (r.E.context1_ms *. scale_c); paper_c ])
       rows);
  note
    "Extra (not in the paper) Unixbench Pipe: uFork %s kloops/s, \
     CheriBSD %s kloops/s\n"
    (f1 (pipe_rate `Ufork /. 1000.))
    (f1 (pipe_rate `Cheribsd /. 1000.))

let toctou () =
  ensure_redis ();
  section "TOCTTOU protection cost (§5.1)";
  let pick sys label =
    List.find_opt (fun (r : E.redis_row) -> r.E.db_label = label)
      (rows_for sys)
  in
  let biggest = List.hd (List.rev (redis_sizes ())) in
  let label, _, _ = biggest in
  (match (pick (E.Ufork Strategy.Copa) label, pick (E.Ufork_toctou Strategy.Copa) label) with
  | Some base, Some prot ->
      note "Redis fork latency at %s: +%s%% (paper: 2.6%% at 100 MB)\n" label
        (f1 ((prot.E.fork_us /. base.E.fork_us -. 1.) *. 100.))
  | _ -> ());
  let u = E.faas_run (E.Ufork Strategy.Copa) ~worker_cores:3 ~window_s:(window_s ()) () in
  let p = E.faas_run (E.Ufork_toctou Strategy.Copa) ~worker_cores:3 ~window_s:(window_s ()) () in
  note "FaaS throughput delta: %s%% (paper: negligible)\n"
    (f1 ((1. -. (p.E.throughput_per_s /. u.E.throughput_per_s)) *. 100.));
  let nu = E.nginx_run (E.Ufork Strategy.Copa) ~cores:1 ~workers:3 ~window_s:(window_s ()) () in
  let np = E.nginx_run (E.Ufork_toctou Strategy.Copa) ~cores:1 ~workers:3 ~window_s:(window_s ()) () in
  note "Nginx throughput cost: %s%% (paper: 6.5%%)\n"
    (f1 ((1. -. (np.E.requests_per_s /. nu.E.requests_per_s)) *. 100.))

let ablations () =
  section "Ablation: proactive GOT/metadata copy at fork";
  List.iter
    (fun (r : E.ablation_row) ->
      note "%-44s %10s %s\n" r.E.label (f1 r.E.value) r.E.unit_)
    (E.ablate_proactive ());
  section "Ablation: sealed-capability vs trap syscall entry (uFork)";
  List.iter
    (fun (r : E.ablation_row) ->
      note "%-44s %10s %s\n" r.E.label (f2 r.E.value) r.E.unit_)
    (E.ablate_syscall_entry ());
  section "Ablation: isolation levels (Redis 10 MB save)";
  List.iter
    (fun (r : E.ablation_row) ->
      note "%-44s %10s %s\n" r.E.label (f1 r.E.value) r.E.unit_)
    (E.ablate_isolation ());
  section "Fragmentation (§6): virtual-arena growth under fork churn";
  List.iter
    (fun (r : E.fragmentation_row) ->
      note "%-16s %4d forks: arena high-water %8s MB, live %8s MB\n"
        r.E.scenario r.E.churn (f2 r.E.arena_mb) (f2 r.E.live_mb))
    (E.ablate_fragmentation ())

(* ------------------------------------------------------------------ *)
(* SMP fork-throughput scaling: per-core run queues, sharded locks and
   IPI-costed shootdown windows, swept across core counts and against
   the big-kernel-lock baseline. Emits BENCH_smp.json. *)

let cores_sweep = ref [ 1; 2; 4; 8; 16; 32; 64; 128; 256; 512 ]
let smp_out = ref "BENCH_smp.json"
let smp_baseline : string option ref = ref None
let smp_max_regress_pct = ref 15.0
let smp_explain_out : string option ref = ref None

(* Extract `"key": value` from one line of our own smp JSON emitter's
   output (one sweep point per line), returning the raw value text. A
   substring scan is exact against that emitter and avoids growing a
   JSON dependency for a three-field read. *)
let json_field line key =
  let pat = Printf.sprintf "\"%s\":" key in
  let plen = String.length pat and len = String.length line in
  let rec find i =
    if i + plen > len then None
    else if String.sub line i plen = pat then Some (i + plen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
      let j = ref start in
      while !j < len && line.[!j] = ' ' do
        incr j
      done;
      let k = ref !j in
      while !k < len && line.[!k] <> ',' && line.[!k] <> '}' do
        incr k
      done;
      if !k > !j then Some (String.trim (String.sub line !j (!k - !j)))
      else None

let unquote s =
  let n = String.length s in
  if n >= 2 && s.[0] = '"' && s.[n - 1] = '"' then String.sub s 1 (n - 2)
  else s

(* (cores, locks, forks_per_s) per sweep point of a previous run's
   BENCH_smp.json — the contention_at_top rows carry no "forks_per_s"
   field, so filtering on that key selects exactly the points. *)
let read_smp_baseline path =
  match open_in path with
  | exception Sys_error msg ->
      Printf.eprintf "smp: cannot read baseline: %s\n" msg;
      exit 2
  | ic ->
      let rec loop acc =
        match input_line ic with
        | exception End_of_file ->
            close_in ic;
            List.rev acc
        | line -> (
            match
              ( json_field line "cores",
                json_field line "locks",
                json_field line "forks_per_s" )
            with
            | Some c, Some l, Some f -> (
                match (int_of_string_opt c, float_of_string_opt f) with
                | Some cores, Some fps ->
                    loop ((cores, unquote l, fps) :: acc)
                | _ -> loop acc)
            | _ -> loop acc)
      in
      loop []

let smp_sweep () =
  section "SMP: fork-throughput scaling (sharded locks vs big kernel lock)";
  let iters = if !quick then 4 else 12 in
  let sys = E.Ufork Strategy.Copa in
  let bkl_config =
    Config.with_lock_mode Config.Big_kernel_lock Config.ufork_fast
  in
  let specs =
    List.concat_map
      (fun cores -> [ (cores, None); (cores, Some bkl_config) ])
      !cores_sweep
  in
  let points =
    E.parmap ~jobs:!jobs
      (fun (cores, config) -> E.fork_storm_run ?config sys ~cores ~iters ())
      specs
  in
  Table.print
    ~header:
      [ "cores"; "locks"; "forks"; "forks/s"; "fault p50 (us)";
        "fault p99 (us)"; "steals" ]
    (List.map
       (fun (r : E.smp_row) ->
         [ string_of_int r.E.cores; r.E.locks; string_of_int r.E.forks;
           Table.fmt_f ~dec:0 r.E.forks_per_s; f2 r.E.fault_p50_us;
           f2 r.E.fault_p99_us; string_of_int r.E.steals ])
       points);
  let find cores locks =
    List.find_opt
      (fun (r : E.smp_row) -> r.E.cores = cores && r.E.locks = locks)
      points
  in
  (match (find 64 "sharded", find 4 "bkl") with
  | Some s64, Some b4 when b4.E.forks_per_s > 0. ->
      note "64-core sharded vs 4-core BKL fork throughput: %sx\n"
        (f1 (s64.E.forks_per_s /. b4.E.forks_per_s))
  | _ -> ());
  (* Regression gate: each sweep point's forks/s against the same
     (cores, locks) point of a committed baseline curve. Points absent
     from the baseline (a widened sweep) pass — only measured
     regressions fail. *)
  (match !smp_baseline with
  | None -> ()
  | Some path ->
      let base = read_smp_baseline path in
      let pct = !smp_max_regress_pct in
      let matched = ref 0 in
      let regressions =
        List.filter_map
          (fun (r : E.smp_row) ->
            match
              List.find_opt
                (fun (c, l, _) -> c = r.E.cores && l = r.E.locks)
                base
            with
            | None -> None
            | Some (_, _, fps0) when fps0 > 0. ->
                incr matched;
                let drop = 100. *. (fps0 -. r.E.forks_per_s) /. fps0 in
                if drop > pct then
                  Some (r.E.cores, r.E.locks, fps0, r.E.forks_per_s, drop)
                else None
            | Some _ -> None)
          points
      in
      note "baseline %s: %d/%d points matched, gate at -%s%%\n" path !matched
        (List.length points) (f1 pct);
      if regressions <> [] then (
        List.iter
          (fun (c, l, fps0, fps1, drop) ->
            Printf.eprintf
              "smp: %d-core %s forks/s regressed %.1f%% (baseline %.0f, \
               measured %.0f, gate %.0f%%)\n"
              c l drop fps0 fps1 pct)
          regressions;
        exit 1));
  (* Where does CoPA fork stop scaling? Rerun the top sweep point alone
     so the process-global lock registry holds exactly that machine's
     locks, then break contention down per resource (ROADMAP item 1).
     --explain-out additionally arms the causal collector on this rerun
     and writes the whole-run critical-path blame. *)
  let module Sync = Ufork_sim.Sync in
  let top = List.fold_left max 1 !cores_sweep in
  Sync.reset_lock_contention ();
  let graph =
    let plan = E.current_plan () in
    E.with_plan
      (if !smp_explain_out = None then plan
       else { plan with detectors = [ E.Run.Causal ] })
      (fun () ->
        ignore (E.fork_storm_run sys ~cores:top ~iters ());
        E.causal_graph ())
  in
  let contention =
    List.filter
      (fun (c : Sync.contention) -> c.Sync.acquires > 0)
      (Sync.lock_contention ())
    |> List.sort (fun (a : Sync.contention) (b : Sync.contention) ->
           match compare b.Sync.waits a.Sync.waits with
           | 0 -> String.compare a.Sync.lock b.Sync.lock
           | c -> c)
  in
  note "\nPer-lock contention at the %d-core sharded point:\n" top;
  Table.print
    ~header:[ "lock"; "acquires"; "waits"; "wait %" ]
    (List.map
       (fun (c : Sync.contention) ->
         [
           c.Sync.lock;
           string_of_int c.Sync.acquires;
           string_of_int c.Sync.waits;
           f1 (100. *. float_of_int c.Sync.waits
              /. float_of_int (max 1 c.Sync.acquires));
         ])
       contention);
  (* Cross-check + export: the causal collector's per-lock wait counts
     and Sync's contention counters observe the same Contend events, so
     they must be equal for every lock either side names; then write
     the critical-path blame for the point as JSON. *)
  (match (!smp_explain_out, graph) with
  | Some path, Some g ->
      let module Causal = Ufork_analysis.Causal in
      let report = Causal.analyze g ~t0:0L ~t1:(Causal.horizon g) () in
      let sync_waits lock =
        match
          List.find_opt (fun (c : Sync.contention) -> c.Sync.lock = lock)
            contention
        with
        | Some c -> c.Sync.waits
        | None -> 0
      in
      let causal_waits lock =
        match
          List.find_opt (fun (n, _, _) -> n = lock) report.Causal.r_lock_waits
        with
        | Some (_, w, _) -> w
        | None -> 0
      in
      List.iter
        (fun lock ->
          let counted = sync_waits lock and causal = causal_waits lock in
          if causal <> counted then (
            Printf.eprintf
              "smp: causal wait count for %s (%d) differs from the lock \
               counters (%d)\n"
              lock causal counted;
            exit 1))
        (List.sort_uniq String.compare
           (List.map (fun (c : Sync.contention) -> c.Sync.lock) contention
           @ List.map (fun (n, _, _) -> n) report.Causal.r_lock_waits));
      E.write_artifact path (fun oc ->
          output_string oc (Causal.to_json report));
      note "wrote %s (critical-path blame at the %d-core point)\n" path top
  | Some path, None ->
      Printf.eprintf "smp: --explain-out %s: no causal graph collected\n" path;
      exit 1
  | None, _ -> ());
  E.write_artifact !smp_out (fun oc ->
  Printf.fprintf oc
    "{\n  \"bench\": \"smp_fork_scaling\",\n  \"system\": %S,\n  \"workload\": \"fork_storm: one forking uproc per core, %d forks each, two-page dirty set\",\n  \"iters_per_forker\": %d,\n  \"points\": [\n%s\n  ],\n  \"contention_at_top\": {\n    \"cores\": %d,\n    \"locks\": [\n%s\n    ]\n  }\n}\n"
    (E.system_label sys) iters iters
    (String.concat ",\n"
       (List.map
          (fun (r : E.smp_row) ->
            Printf.sprintf
              "    {\"cores\": %d, \"locks\": %S, \"forks\": %d, \
               \"forks_per_s\": %.1f, \"fault_p50_us\": %.3f, \
               \"fault_p99_us\": %.3f, \"steals\": %d}"
              r.E.cores r.E.locks r.E.forks r.E.forks_per_s r.E.fault_p50_us
              r.E.fault_p99_us r.E.steals)
          points))
    top
    (String.concat ",\n"
       (List.map
          (fun (c : Sync.contention) ->
            Printf.sprintf
              "      {\"lock\": %S, \"acquires\": %d, \"waits\": %d}"
              c.Sync.lock c.Sync.acquires c.Sync.waits)
          contention)));
  note "wrote %s\n" !smp_out

(* The sweep owns its core counts: a global --cores override would
   collapse every point to one machine size, so the target runs under the
   enclosing plan minus that override (later targets keep it). *)
let smp () = E.with_plan { (E.current_plan ()) with cores = None } smp_sweep

(* ------------------------------------------------------------------ *)
(* Events: host-side throughput of the charging hot path. Each point is
   an emit-heavy workload; the metric is simulated mechanism events
   (counted by the end-of-run audit via Experiments.emits_total) per
   second of host wall-clock. Tracked PR-over-PR in BENCH_events.json;
   the CI perf-smoke job fails if `--min-events-per-s` undershoots. *)

let events_out = ref "BENCH_events.json"
let min_events_per_s : float option ref = ref None
let events_baseline : float option ref = ref None

(* The pure emit microloop: one μprocess charging fixed-size compute
   slices back to back. Nothing else is runnable, so every slice takes
   Trace.emit's fastest path — this point isolates the per-event cost
   the rest of the suite dilutes with boot, fork and scheduler work.
   Counted directly off the machine's trace (the workload never goes
   through an Experiments runner). *)
let charge_loop ~emits =
  let module Os = Ufork_core.Os in
  let module Kernel = Ufork_sas.Kernel in
  let module Image = Ufork_sas.Image in
  let module Api = Ufork_sas.Api in
  let os =
    Os.boot ~cores:1 ~config:Config.ufork_fast ~strategy:Strategy.Copa ()
  in
  ignore
    (Os.start os ~image:Ufork_sas.Image.hello (fun api ->
         for _ = 1 to emits do
           api.Api.compute 64L
         done));
  Os.run os;
  Ufork_sim.Trace.emits (Kernel.trace (Os.kernel os))

let events () =
  section "Events: simulated mechanism events per host second (hot path)";
  (* Each point returns the number of simulated events it emitted; all
     but the charge loop count via the end-of-run audit hook. *)
  let counted run () =
    E.reset_emits ();
    run ();
    E.emits_total ()
  in
  (* Point weights follow the metric: this suite measures the emit hot
     path, so emit-dense work (the charge loop, unixbench's syscall
     storm) carries most of the wall time, while boot-bound (hello) and
     host-memcpy-bound (redis) workloads ride along as context rows —
     their per-point rates are reported but they are deliberately sized
     not to drown the hot path they barely exercise. *)
  let pts =
    [
      ( "charge-loop 64-cycle slices",
        let n = if !quick then 2_000_000 else 8_000_000 in
        fun () -> charge_loop ~emits:n );
      ( "hello-fork x3 flavours",
        let reps = if !quick then 20 else 300 in
        counted (fun () ->
            for _ = 1 to reps do
              List.iter
                (fun s -> ignore (E.hello_run s))
                [ E.Ufork Strategy.Copa; E.Cheribsd; E.Nephele ]
            done) );
      ( (if !quick then "redis-save 1MB CoPA" else "redis-save 10MB CoPA"),
        let reps = if !quick then 1 else 4 in
        let value_len = if !quick then 10 * 1024 else 100 * 1024 in
        let db_label = if !quick then "1 MB" else "10 MB" in
        counted (fun () ->
            for _ = 1 to reps do
              ignore
                (E.redis_run (E.Ufork Strategy.Copa) ~entries:100 ~value_len
                   ~db_label)
            done) );
      ( "fork-storm 4 cores",
        let iters = if !quick then 100 else 400 in
        counted (fun () ->
            ignore
              (E.fork_storm_run (E.Ufork Strategy.Copa) ~cores:4 ~iters ())) );
      ( "unixbench spawn+context1",
        let sp = spawn_iters () and c1 = context1_iters () in
        counted (fun () ->
            ignore
              (E.unixbench_run (E.Ufork Strategy.Copa) ~spawn_iters:sp
                 ~context1_iters:c1)) );
    ]
  in
  let rows =
    List.map
      (fun (label, run) ->
        let t0 = Monotonic_clock.now () in
        let emits = run () in
        let t1 = Monotonic_clock.now () in
        let wall_s = Int64.to_float (Int64.sub t1 t0) /. 1e9 in
        let eps = if wall_s > 0. then float_of_int emits /. wall_s else 0. in
        (label, emits, wall_s, eps))
      pts
  in
  Table.print
    ~header:[ "point"; "events"; "wall (ms)"; "Mevents/s" ]
    (List.map
       (fun (label, emits, wall_s, eps) ->
         [
           label;
           string_of_int emits;
           f1 (wall_s *. 1e3);
           f2 (eps /. 1e6);
         ])
       rows);
  let total_emits =
    List.fold_left (fun acc (_, e, _, _) -> acc + e) 0 rows
  in
  let total_wall =
    List.fold_left (fun acc (_, _, w, _) -> acc +. w) 0. rows
  in
  let total_eps =
    if total_wall > 0. then float_of_int total_emits /. total_wall else 0.
  in
  note "total: %d events in %s ms = %s Mevents/s\n" total_emits
    (f1 (total_wall *. 1e3))
    (f2 (total_eps /. 1e6));
  (match !events_baseline with
  | Some base when base > 0. ->
      note "vs baseline %s Mevents/s: %sx\n" (f2 (base /. 1e6))
        (f2 (total_eps /. base))
  | Some _ | None -> ());
  E.write_artifact !events_out (fun oc ->
  Printf.fprintf oc
    "{\n  \"bench\": \"events_hot_path\",\n  \"metric\": \"simulated \
     mechanism events per host second (non-recorded path)\",\n  \
     \"quick\": %b,\n  \"points\": [\n%s\n  ],\n  \"total_events\": %d,\n  \
     \"total_wall_ms\": %.1f,\n  \"events_per_s\": %.0f%s\n}\n"
    !quick
    (String.concat ",\n"
       (List.map
          (fun (label, emits, wall_s, eps) ->
            Printf.sprintf
              "    {\"point\": %S, \"events\": %d, \"wall_ms\": %.1f, \
               \"events_per_s\": %.0f}"
              label emits (wall_s *. 1e3) eps)
          rows))
    total_emits (total_wall *. 1e3) total_eps
    (match !events_baseline with
    | Some base when base > 0. ->
        Printf.sprintf
          ",\n  \"baseline_events_per_s\": %.0f,\n  \
           \"speedup_vs_baseline\": %.2f"
          base (total_eps /. base)
    | Some _ | None -> ""));
  note "wrote %s\n" !events_out;
  match !min_events_per_s with
  | Some floor when total_eps < floor ->
      Printf.eprintf
        "events: throughput %.0f events/s below the required floor %.0f\n"
        total_eps floor;
      exit 1
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)

let all () =
  table1 ();
  survey ();
  fig1_fig2 ();
  fig3 ();
  fig4 ();
  fig5 ();
  fig6 ();
  fig7 ();
  fig8 ();
  fig9 ();
  toctou ();
  ablations ();
  smp ()

let run_target = function
  | "table1" -> table1 ()
  | "survey" -> survey ()
  | "fig1" | "fig2" | "fig1-2" -> fig1_fig2 ()
  | "fig3" -> fig3 ()
  | "fig4" -> fig4 ()
  | "fig5" -> fig5 ()
  | "fig6" -> fig6 ()
  | "fig7" -> fig7 ()
  | "fig8" -> fig8 ()
  | "fig9" -> fig9 ()
  | "toctou" -> toctou ()
  | "ablate-proactive" | "ablate-entry" | "ablate-isolation" | "ablations" ->
      ablations ()
  | "smp" -> smp ()
  | "events" -> events ()
  | "all" -> all ()
  | other ->
      Printf.eprintf "unknown bench target %S\n" other;
      exit 2

let main targets quick_flag jobs_flag cores sweep smp_out_flag
    smp_baseline_flag max_regress explain_out events_out_flag min_eps baseline
    trace_out profile_out =
  (* "quick" as a positional target is the historic spelling of --quick:
     it sets the flag and is dropped from the target list, so a bare
     `bench quick` runs the full reduced suite rather than nothing. *)
  if quick_flag || List.mem "quick" targets then quick := true;
  jobs := max 1 jobs_flag;
  (match events_out_flag with Some p -> events_out := p | None -> ());
  min_events_per_s := min_eps;
  events_baseline := baseline;
  (match sweep with
  | Some s ->
      cores_sweep :=
        List.map
          (fun n ->
            match int_of_string_opt (String.trim n) with
            | Some v when v > 0 -> v
            | Some _ | None ->
                Printf.eprintf "bad --cores-sweep entry %S\n" n;
                exit 2)
          (String.split_on_char ',' s)
  | None -> ());
  (match smp_out_flag with Some p -> smp_out := p | None -> ());
  smp_baseline := smp_baseline_flag;
  smp_max_regress_pct := max_regress;
  smp_explain_out := explain_out;
  let targets = List.filter (fun t -> t <> "quick") targets in
  let targets = if targets = [] then [ "all" ] else targets in
  E.with_plan
    {
      E.Run.default with
      cores;
      trace_out = Option.map (fun p -> (p, E.Jsonl)) trace_out;
      profile_out;
    }
    (fun () -> List.iter run_target targets)

let cmd =
  let open Cmdliner in
  let targets =
    let doc =
      "Benchmark targets: table1, survey, fig1-2, fig3..fig9, toctou, \
       ablations, smp, events, all (default)."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"TARGET" ~doc)
  in
  let quick_flag =
    let doc = "Shrink iteration counts for a fast smoke run." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let jobs_flag =
    let doc =
      "Run sweep points (fig6, redis figures, smp) on $(docv) OCaml \
       domains. Each point owns its simulated machine, so output is \
       byte-identical to --jobs 1."
    in
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)
  in
  let cores =
    let doc =
      "Boot every simulated machine with $(docv) cores instead of each \
       experiment's default."
    in
    Arg.(value & opt (some int) None & info [ "cores" ] ~docv:"N" ~doc)
  in
  let sweep =
    let doc =
      "Core counts for the $(b,smp) scaling target, comma-separated \
       (default 1,2,4,8,16,32,64,128,256,512). Each point runs the fork \
       storm under sharded locks and under the legacy big kernel lock."
    in
    Arg.(
      value & opt (some string) None & info [ "cores-sweep" ] ~docv:"LIST" ~doc)
  in
  let smp_out_flag =
    let doc = "Where the $(b,smp) target writes its JSON curve." in
    Arg.(
      value
      & opt (some string) None
      & info [ "smp-out" ] ~docv:"FILE" ~doc)
  in
  let smp_baseline_flag =
    let doc =
      "Compare the $(b,smp) target's forks/s per (cores, locks) sweep \
       point against a previous run's curve in $(docv) (a committed \
       BENCH_smp.json) and fail (exit 1) on regression beyond \
       $(b,--max-regress-pct) — the CI perf-smoke gate."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "smp-baseline" ] ~docv:"FILE" ~doc)
  in
  let max_regress =
    let doc =
      "Allowed forks/s drop per sweep point, in percent, before \
       $(b,--smp-baseline) fails the run."
    in
    Arg.(
      value & opt float 15.0 & info [ "max-regress-pct" ] ~docv:"PCT" ~doc)
  in
  let explain_out =
    let doc =
      "Arm the causal collector on the $(b,smp) target's top-point rerun \
       and write the whole-run critical-path blame (JSON) to $(docv); \
       fails unless the causal per-lock wait counts equal the lock \
       contention counters, lock for lock."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "explain-out" ] ~docv:"FILE" ~doc)
  in
  let events_out_flag =
    let doc = "Where the $(b,events) target writes its JSON report." in
    Arg.(
      value
      & opt (some string) None
      & info [ "events-out" ] ~docv:"FILE" ~doc)
  in
  let min_eps =
    let doc =
      "Fail (exit 1) if the $(b,events) target measures fewer simulated \
       events per host second than $(docv) — the CI perf-smoke floor."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "min-events-per-s" ] ~docv:"N" ~doc)
  in
  let baseline =
    let doc =
      "Baseline events-per-second to record (and report the speedup \
       against) in the $(b,events) target's JSON."
    in
    Arg.(
      value
      & opt (some float) None
      & info [ "events-baseline" ] ~docv:"N" ~doc)
  in
  let trace_out =
    let doc =
      "Record every mechanism event and write a JSONL trace to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let profile_out =
    let doc =
      "Write folded-stack flamegraph text (span phase attribution across \
       every machine the run boots) to $(docv)."
    in
    Arg.(
      value & opt (some string) None & info [ "profile-out" ] ~docv:"FILE" ~doc)
  in
  let doc = "μFork reproduction benchmark harness" in
  Cmd.v
    (Cmd.info "bench" ~doc)
    Term.(
      const main $ targets $ quick_flag $ jobs_flag $ cores $ sweep
      $ smp_out_flag $ smp_baseline_flag $ max_regress $ explain_out
      $ events_out_flag $ min_eps $ baseline $ trace_out $ profile_out)

let () = exit (Cmdliner.Cmd.eval cmd)
