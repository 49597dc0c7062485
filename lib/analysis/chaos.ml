module Addr = Ufork_mem.Addr
module Page = Ufork_mem.Page
module Phys = Ufork_mem.Phys
module Pte = Ufork_mem.Pte
module Page_table = Ufork_mem.Page_table
module Capability = Ufork_cheri.Capability
module Perms = Ufork_cheri.Perms
module Engine = Ufork_sim.Engine
module Sync = Ufork_sim.Sync
module Costs = Ufork_sim.Costs
module Event = Ufork_sim.Event
module Trace = Ufork_sim.Trace
module Kernel = Ufork_sas.Kernel
module Uproc = Ufork_sas.Uproc
module Config = Ufork_sas.Config
module Image = Ufork_sas.Image

type scenario = {
  name : string;
  expected : Invariant.t;
  detect : unit -> Invariant.violation list;
}

(* {1 State-injection scaffolding}

   A small healthy machine: two unrelated μprocesses with their initial
   images eagerly mapped, nothing running. Built outside any engine
   thread — the event bus counts the setup but charges no cycles. The
   SASOS shares one page table between them; the CheriBSD kernel gives
   each its own, at the same addresses. *)

let machine ~costs ~config ~multi_address_space () =
  let engine = Engine.create ~cores:1 () in
  let k = Kernel.create ~engine ~costs ~config ~multi_address_space () in
  let u1 = Kernel.create_uproc k ~image:Image.hello () in
  Kernel.map_initial_image k u1;
  let u2 = Kernel.create_uproc k ~image:Image.hello () in
  Kernel.map_initial_image k u2;
  (k, u1, u2)

let sas_machine =
  machine ~costs:Costs.ufork ~config:Config.ufork_fast
    ~multi_address_space:false

let cheribsd_machine =
  machine ~costs:Costs.cheribsd ~config:Config.cheribsd_default
    ~multi_address_space:true

let data_pte (u : Uproc.t) =
  Page_table.lookup_exn u.Uproc.pt
    ~vpn:(Addr.vpn_of_addr u.Uproc.regions.Uproc.data_base)

(* An address above every allocated area: mapped or pointed-to, nothing
   live can legitimately own it. *)
let beyond_areas k =
  List.fold_left (fun m (b, s, _) -> max m (b + s)) 0 (Kernel.areas k)
  + (2 * Addr.page_size)

let user_cap k ~base ~length =
  Capability.mint ~parent:(Kernel.root_cap k) ~base ~length
    ~perms:Perms.user_data

let state ?(machine = sas_machine) name expected inject =
  {
    name;
    expected;
    detect =
      (fun () ->
        let k, u1, u2 = machine () in
        inject k u1 u2;
        Checker.sweep k);
  }

(* The injections that also run on the CheriBSD machine. *)

let leaked_retain k u1 _ =
  (* An extra reference nothing maps: the census cannot explain it. *)
  Phys.retain (Kernel.phys k) (data_pte u1).Pte.frame

let tag_on_free_frame k u1 _ =
  (* Use-after-free of the tag side table: a capability materializes in
     a frame that is back in the pool. *)
  let phys = Kernel.phys k in
  let f = Phys.alloc phys in
  Phys.release phys f;
  Page.store_cap (Phys.page f) ~off:0
    (user_cap k ~base:u1.Uproc.regions.Uproc.data_base ~length:16)

let skewed_accounting k _ _ = Phys.chaos_skew_in_use (Kernel.phys k) 3

(* {1 Protocol-injection scaffolding} *)

let r ~t ~pid event =
  {
    Trace.t = Int64.of_int t;
    core = 0;
    tid = 0;
    name = "";
    pid;
    event;
    cycles = 0L;
  }

let stream evs = List.mapi (fun t (pid, ev) -> r ~t ~pid ev) evs

let protocol name expected evs =
  { name; expected; detect = (fun () -> Lint.run (stream evs)) }

let scenarios =
  [
    state "S1-leaked-retain" Invariant.Refcount_mismatch leaked_retain;
    state "S2-tag-on-free-frame" Invariant.Free_frame_state tag_on_free_frame;
    state "S3-wild-cap" Invariant.Cap_bounds (fun k u1 _ ->
        (* A stored capability pointing at unowned address space. *)
        Page.store_cap
          (Phys.page (data_pte u1).Pte.frame)
          ~off:0
          (user_cap k ~base:(beyond_areas k) ~length:64));
    state "S4-writable-cow" Invariant.Cow_writable (fun _ u1 _ ->
        (* A CoW mapping that never lost its write bit: the "shared"
           frame is silently mutable. *)
        let pte = data_pte u1 in
        pte.Pte.share <- Pte.Cow_shared;
        pte.Pte.write <- true);
    state "S5-copa-without-trap" Invariant.Share_perms (fun _ u1 _ ->
        (* CoPA sharing whose cap-load trap is missing: the child could
           load unrelocated parent capabilities. *)
        let pte = data_pte u1 in
        pte.Pte.write <- false;
        pte.Pte.share <- Pte.Copa_shared;
        pte.Pte.cap_load_fault <- false);
    state "S6-shm-of-anonymous-frame" Invariant.Shm_coherence (fun _ u1 _ ->
        (* A mapping claims deliberate sharing but its frame belongs to
           no named segment. *)
        let pte = data_pte u1 in
        pte.Pte.write <- false;
        pte.Pte.share <- Pte.Shm_shared);
    state "S7-private-alias" Invariant.Private_aliased (fun _ u1 _ ->
        (* The same frame mapped twice, both sides believing they own it
           privately. *)
        let pte = data_pte u1 in
        Page_table.map_shared u1.Uproc.pt
          ~vpn:(Addr.vpn_of_addr u1.Uproc.regions.Uproc.heap_base)
          (Pte.make pte.Pte.frame));
    state "S8-orphan-mapping" Invariant.Orphan_mapping (fun k u1 _ ->
        (* A mapping outside every live or zombie area. *)
        Page_table.map u1.Uproc.pt
          ~vpn:(Addr.vpn_of_addr (beyond_areas k))
          (Pte.make (Phys.alloc (Kernel.phys k))));
    state "S9-skewed-accounting" Invariant.Phys_accounting skewed_accounting;
    state "S10-cross-area-cap" Invariant.Cross_area_cap (fun k u1 u2 ->
        (* A capability in pid 1's memory granting access to pid 2's
           area — the isolation breach μFork's relocation must prevent.
           The two processes are unrelated, so this is the generic S10
           direction, not the parent→child S11 split. *)
        Page.store_cap
          (Phys.page (data_pte u1).Pte.frame)
          ~off:0
          (user_cap k ~base:u2.Uproc.area_base ~length:64));
    {
      name = "S11-parent-cap-into-child";
      expected = Invariant.Parent_child_leak;
      detect =
        (fun () ->
          (* The reverse-direction fork leak: a page of the *parent*
             still holds authority over its child's area after fork.
             The parent relation is what turns the generic cross-area
             report into S11. *)
          let k, u1, _ = sas_machine () in
          let child =
            Kernel.create_uproc k ~parent:u1 ~image:Image.hello ()
          in
          Kernel.map_initial_image k child;
          Page.store_cap
            (Phys.page (data_pte u1).Pte.frame)
            ~off:0
            (user_cap k ~base:child.Uproc.area_base ~length:64);
          Checker.sweep k);
    };
    protocol "L1-unresolved-cow" Invariant.Cow_protocol
      [ (1, Event.Page_fault); (1, Event.Cow_write_fault) ];
    protocol "L2-unresolved-copa" Invariant.Copa_protocol
      [ (1, Event.Page_fault); (1, Event.Copa_write_fault) ];
    protocol "L3-unresolved-coa" Invariant.Coa_protocol
      [ (1, Event.Page_fault); (1, Event.Coa_access_fault) ];
    protocol "L4-missing-shootdown" Invariant.Tlb_flush_protocol
      [
        (1, Event.Fork_fixed);
        (2, Event.Pte_copy 1);
        (* Fault traffic from the forking process with no Tlb_shootdown
           in between; the fault itself is well-formed so only L4
           fires. *)
        (1, Event.Page_fault);
        (1, Event.Cow_write_fault);
        (1, Event.Page_copy_cow);
      ];
    protocol "L5-missing-relocation" Invariant.Copa_relocation
      [
        (1, Event.Page_fault);
        (1, Event.Copa_cap_load_fault);
        (* Copied but never tag-scanned: the child runs with unrelocated
           capabilities. *)
        (1, Event.Claim_in_place);
      ];
  ]

let cheribsd_scenarios =
  [
    state ~machine:cheribsd_machine "S1-leaked-retain-cheribsd"
      Invariant.Refcount_mismatch leaked_retain;
    state ~machine:cheribsd_machine "S2-tag-on-free-frame-cheribsd"
      Invariant.Free_frame_state tag_on_free_frame;
    state ~machine:cheribsd_machine "S7-private-alias-cheribsd"
      Invariant.Private_aliased (fun _ u1 u2 ->
        (* One frame mapped Private in two processes' tables: the census
           must add up mappings across tables. *)
        Page_table.map_shared u2.Uproc.pt
          ~vpn:(Addr.vpn_of_addr u2.Uproc.regions.Uproc.heap_base)
          (Pte.make (data_pte u1).Pte.frame));
    state ~machine:cheribsd_machine "S9-skewed-accounting-cheribsd"
      Invariant.Phys_accounting skewed_accounting;
  ]

let clean_machine () =
  let k, _, _ = sas_machine () in
  Checker.sweep k

let clean_cheribsd_machine () =
  let k, _, _ = cheribsd_machine () in
  Checker.sweep k

let clean_protocol () =
  Lint.run
    (stream
       [
         (* A fork: downgrade batch sealed by the shootdown. *)
         (1, Event.Fork_fixed);
         (2, Event.Pte_copy 1);
         (1, Event.Tlb_shootdown 3);
         (* Parent CoW write, copy resolution. *)
         (1, Event.Page_fault);
         (1, Event.Cow_write_fault);
         (1, Event.Page_copy_cow);
         (* Child CoPA capability load: copy then relocate. *)
         (2, Event.Page_fault);
         (2, Event.Copa_cap_load_fault);
         (2, Event.Page_copy_child);
         (2, Event.Granule_scan 256);
         (2, Event.Cap_relocate 3);
         (* Child CoPA write: in-place claim (relocation follows anyway). *)
         (2, Event.Page_fault);
         (2, Event.Copa_write_fault);
         (2, Event.Claim_in_place);
         (2, Event.Granule_scan 256);
         (* CoA access fault. *)
         (2, Event.Page_fault);
         (2, Event.Coa_access_fault);
         (2, Event.Page_copy_child);
         (2, Event.Granule_scan 256);
         (* A kernel-simulated touch: bare page fault, direct resolution,
            no classifier — legal. *)
         (1, Event.Page_fault);
         (1, Event.Cow_claim_in_place);
       ])

(* {1 Run-time injections}

   The must-fail controls of the dynamic detectors. Each arms one
   deliberate bug on a freshly booted machine, before any workload
   thread starts, and the detector behind [violates] must then fail the
   run with exactly that invariant. Everything an injection changes
   belongs to the machine it was armed on — a rogue thread, a lock mode,
   a wrapped fork hook — except the skipped rebase: the tag scan has no
   outside hook, so that one sets the {!Relocate.chaos_skip_rebase}
   seam, which the harness assigns at every boot. *)

module Relocate = Ufork_core.Relocate

type injection =
  | Skip_rebase
  | Heap_smuggle
  | Leak_root
  | No_bkl
  | Unshard
  | Invert_shard_order
  | Stall_shard

type control = {
  injection : injection;
  flag : string;
  doc : string;
  violates : Invariant.t;
  arm : Kernel.t -> unit;
}

let rogue k name body = ignore (Engine.spawn (Kernel.engine k) ~name body)

(* Carry one parent capability across the fork in an OCaml-heap cell —
   the shadow copy the §4.2 tag scan can never see — and raw-store it
   into the child's meta page once the fork has returned, bypassing the
   MMU publication path, so only the fork-completion scan can notice the
   foreign provenance. The cell is shared by every fork in flight on the
   machine and emptied by the first to complete, so under concurrent
   forks the planted authority may be another forker's. *)
let heap_smuggle k =
  match Kernel.fork_hook k with
  | None -> ()
  | Some fork ->
      let armed = ref true and stash = ref None in
      (* The stash is exactly the D13 escape pattern, discharged because
         being invisible to the static side is the point of the
         experiment. *)
      let stash_parent (parent : Uproc.t) =
        stash :=
          Some
            (Capability.with_cursor (Kernel.area_cap k parent)
               parent.Uproc.area_base)
      [@@ufork.cap_escape_ok]
      in
      Kernel.set_fork_hook k (fun parent child_main ->
          if !armed then stash_parent parent;
          let pid = fork parent child_main in
          (match (!stash, Kernel.find_uproc k pid) with
          | Some cap, Some child -> (
              stash := None;
              armed := false;
              let addr = Kernel.meta_addr child 0 in
              match
                Page_table.lookup child.Uproc.pt ~vpn:(Addr.vpn_of_addr addr)
              with
              | Some pte ->
                  Page.store_cap (Phys.page pte.Pte.frame)
                    ~off:(Addr.page_offset addr) cap
              | None -> ())
          | _ -> ());
          pid)

(* {1 Lock injections}

   Each works on the kernel's lock slots ({!Kernel.locks}): dropping a
   slot removes that lock from every helper that guards with it. *)

(* A kernel whose syscalls and fault path forgot every lock. *)
let drop_all_locks k =
  let l = Kernel.locks k in
  Kernel.set_locks k
    {
      Kernel.big = None;
      pool = None;
      frame_pool = None;
      uproc_table = None;
      fd_tables = None;
      stats = None;
      pt_shards = Array.map (fun _ -> None) l.Kernel.pt_shards;
    }

(* Every other shard stays; only the stats lock goes. *)
let drop_stats_lock k =
  Kernel.set_locks k { (Kernel.locks k) with Kernel.stats = None }

(* Take one pt-shard pair in DESCENDING index order, the exact inversion
   of the ascending convention [Kernel.with_pt_shard_pair] keeps. The
   static rule D10 is discharged here by the ignore annotation; an
   unannotated fixture of the same shape seeds the static test. No-op
   under the big lock (no shards to invert). *)
let acquire_shards_descending k =
  let shards = (Kernel.locks k).Kernel.pt_shards in
  match (shards.(1), shards.(0)) with
  | Some hi, Some lo ->
      Sync.Rlock.with_lock hi (fun () -> Sync.Rlock.with_lock lo ignore)
  | _ -> ()
[@@ufork.lockdep_ignore]

(* Sit on pt-shard 0 (the shard covering the root process's area) for
   150k cycles without charging anything: a sleep passes wall time but
   no busy cycles, so Trace.audit is unaffected. Every fork touching
   that shard then queues behind a holder that is not even running.
   No-op under the big lock. *)
let stall_shard k =
  match (Kernel.locks k).Kernel.pt_shards.(0) with
  | Some shard ->
      Sync.Rlock.with_lock shard (fun () -> Engine.sleep 150_000L)
  | None -> ()

let injections =
  [
    {
      injection = Skip_rebase;
      flag = "chaos-skip-rebase";
      doc =
        "Fault injection: the next fork silently skips the rebase of one \
         capability, leaving a parent-provenance capability in the \
         child's pages. With $(b,--capflow) the check must fail with \
         exactly R4 at the fork window's closing edge.";
      violates = Invariant.Cap_provenance;
      arm = (fun _ -> Relocate.chaos_skip_rebase := true);
    };
    {
      injection = Heap_smuggle;
      flag = "chaos-heap-smuggle";
      doc =
        "Fault injection: the next fork carries one parent capability \
         across in an OCaml-heap cell — invisible to the tag scan and \
         discharged from the static rule D13 — and raw-stores it into \
         the child. Only the runtime side can catch it: with \
         $(b,--capflow) the check must fail with exactly R4.";
      violates = Invariant.Cap_provenance;
      arm = heap_smuggle;
    };
    {
      injection = Leak_root;
      flag = "chaos-leak-root";
      doc =
        "Fault injection: a rogue boot thread stores the kernel's root \
         capability into a running μprocess's GOT. With $(b,--capflow) \
         the check must fail with exactly R4 (root provenance reachable \
         from user pages).";
      violates = Invariant.Cap_provenance;
      arm =
        (fun k ->
          (* Retry until a process is running, then plant the root in
             its GOT. *)
          rogue k "chaos-leak-root" (fun () ->
              let rec attempt budget =
                Engine.sleep 500L;
                if (not (Kernel.chaos_leak_root k)) && budget > 0 then
                  attempt (budget - 1)
              in
              attempt 100));
    };
    {
      injection = No_bkl;
      flag = "chaos-no-bkl";
      doc =
        "Fault injection: disable the big kernel lock and seed one \
         deliberate unlocked shared-state write. With $(b,--race) the \
         check must fail with R1.";
      violates = Invariant.Data_race;
      arm =
        (fun k ->
          drop_all_locks k;
          (* The seeded bug: one kernel-side write to the fork latency
             gauge every fork also writes, from a thread that takes no
             lock. With the big lock gone nothing orders it. *)
          rogue k "chaos-unlocked" (fun () ->
              Engine.sleep 1_000L;
              Trace.gauge (Kernel.trace k) Trace.last_fork_latency_key 0));
    };
    {
      injection = Unshard;
      flag = "chaos-unshard";
      doc =
        "Fault injection: disable exactly one sharded kernel lock (the \
         stats shard guarding the fork-latency gauge), seeding nothing \
         else. Under the $(b,storm) workload with $(b,--race) the check \
         must fail with exactly one R1 — the control certifying the \
         detector sees through the lock split.";
      violates = Invariant.Data_race;
      (* No bug is seeded beyond the missing lock: the race, if the
         detector is honest, is between two legitimate fork-path gauge
         writes from different forking threads. *)
      arm = drop_stats_lock;
    };
    {
      injection = Invert_shard_order;
      flag = "chaos-invert-shard-order";
      doc =
        "Fault injection: spawn one rogue thread that acquires a \
         page-table shard pair in descending index order. With \
         $(b,--lockdep) the check must fail with exactly R2 — the \
         control certifying the order checker is live.";
      violates = Invariant.Lock_order;
      (* Spawned before any workload thread, it finds both shards free,
         so the inversion completes (and is published) rather than
         deadlocking. *)
      arm =
        (fun k ->
          rogue k "chaos-shard-invert" (fun () ->
              acquire_shards_descending k));
    };
    {
      injection = Stall_shard;
      flag = "chaos-stall-shard";
      doc =
        "Fault injection: a rogue boot thread holds page-table shard 0 \
         across a long sleep. The analysis (whole run by default) must \
         then report that lock as the dominant critical-path edge and \
         the command exits non-zero with R3 — the control certifying the \
         analyzer is live.";
      violates = Invariant.Lock_stall;
      (* Spawned before any workload thread, it wins the shard while
         free; every fork touching shard 0 then queues behind a sleeping
         holder. *)
      arm =
        (fun k ->
          rogue k "chaos-stall-shard" (fun () -> stall_shard k));
    };
  ]
