module Capability = Ufork_cheri.Capability
module Perms = Ufork_cheri.Perms
module Addr = Ufork_mem.Addr
module Phys = Ufork_mem.Phys
module Pte = Ufork_mem.Pte
module Page_table = Ufork_mem.Page_table
module Vas = Ufork_mem.Vas
module Engine = Ufork_sim.Engine
module Sync = Ufork_sim.Sync
module Costs = Ufork_sim.Costs
module Meter = Ufork_sim.Meter
module Event = Ufork_sim.Event
module Trace = Ufork_sim.Trace

(* The shared single-address-space arena starts above the kernel region. *)
let kernel_region_bytes = 64 * 1024 * 1024
let user_arena_base = kernel_region_bytes

(* Sorted interval index over live+zombie μprocess areas: base → entries.
   Live areas are disjoint in a single address space, so the predecessor
   query answers containment in O(log areas); multi-AS kernels stack every
   process at [user_arena_base], hence a list per base. *)
module Area_index = Map.Make (Int)

(* {1 Kernel locking}

   Two disciplines, selected by {!Config.lock_mode}, share one record of
   lock slots; a slot the regime does not take is [None], and every
   helper below is the one [guard] over its slot.

   - [Big_kernel_lock]: the legacy big kernel lock (Unikraft SMP, §4.5)
     — one recursive lock serializing every syscall body across cores.
     Recursion is needed because a fault raised inside a syscall (e.g.
     copyout hitting a CoW page) re-enters the kernel on the same
     thread, and a plain lock would self-deadlock the cooperative
     engine. It fills [big] and [pool].
   - [Sharded_locks]: per-resource locks. Syscall bodies run
     concurrently; each shared structure gets its own named lock, every
     one registered with the {!Ufork_util.Hb} bus so the FastTrack
     detector certifies the split. It fills every slot but [big].

   Lock hierarchy (outermost first):
     uproc_table > fd_tables > pt_shard > frame_pool > stats.
   Page-table shards are indexed by area base, so one μprocess's whole
   area maps to one shard; fork takes the parent and child shards in
   ascending index order. Fault service takes no table lock at all: a
   handler writes only its own process's PTEs plus atomic frame
   refcounts (the ownership discipline the detector checks). *)

let pt_shard_count = 16

(* Each slot is documented in kernel.mli. *)
type locks = {
  big : Sync.Rlock.t option;
  pool : Sync.Rlock.t option;
  frame_pool : Sync.Rlock.t option;
  uproc_table : Sync.Rlock.t option;
  fd_tables : Sync.Rlock.t option;
  stats : Sync.Rlock.t option;
  pt_shards : Sync.Rlock.t option array;
}

type t = {
  engine : Engine.t;
  costs : Costs.t;
  config : Config.t;
  trace : Trace.t;
  phys : Phys.t;
  vfs : Vfs.t;
  mutable locks : locks;
  procs : (int, Uproc.t) Hashtbl.t;
  mutable next_pid : int;
  root : Capability.t;
  multi_as : bool;
  shared_pt : Page_table.t option; (* the single table of the SASOS *)
  mutable next_area : int;
  mutable free_areas : (int * int) list; (* (base, bytes) of reaped areas *)
  mutable fork_hook : (Uproc.t -> (Api.t -> unit) -> int) option;
  mutable fault_hook : (Uproc.t -> addr:int -> access:Vas.access -> unit) option;
  mutable areas : (int * int) list Area_index.t;
      (* base → (bytes, pid) entries, live+zombie, newest first *)
  shms : (string, Phys.frame array) Hashtbl.t; (* named shared memory *)
  libs : (string, Phys.frame array) Hashtbl.t; (* shared library text *)
  aslr : Ufork_util.Prng.t option;
  entry_cap : Capability.t;
      (* The sealed kernel entry capability handed to every uprocess: the
         only way into kernel code without a trap (§4.2, §4.4). *)
}

(* Built once: every sharded boot names its shards with these. *)
let pt_shard_names =
  Array.init pt_shard_count (Printf.sprintf "lock.pt_shard.%02d")

let guard slot f =
  match slot with Some l -> Sync.Rlock.with_lock l f | None -> f ()

let make_locks ~engine mode =
  let lock name = Some (Sync.Rlock.create ~engine ~name ()) in
  (* One frame-pool lock in both regimes: the sharded frame_pool
     resource, and under the big lock the guard of the batched
     freelist refill/drain transfers Phys runs against the shared
     pool. *)
  let pool = lock "lock.frame_pool" in
  match mode with
  | Config.Big_kernel_lock ->
      {
        big = lock "lock.kernel.big";
        pool;
        frame_pool = None;
        uproc_table = None;
        fd_tables = None;
        stats = None;
        pt_shards = Array.make pt_shard_count None;
      }
  | Config.Sharded_locks ->
      {
        big = None;
        pool;
        frame_pool = pool;
        uproc_table = lock "lock.uproc_table";
        fd_tables = lock "lock.fd_tables";
        stats = lock "lock.stats";
        pt_shards = Array.map lock pt_shard_names;
      }

let create ~engine ~costs ~config ~multi_address_space () =
  let phys =
    Phys.create ~cores:(Engine.cores engine)
      ~core:(fun () -> Engine.running_core engine)
      ()
  in
  let root = Capability.root () in
  let entry_cap =
    (* Points at the system-call handler in the kernel region, executable
       but sealed: invocable, never inspectable or modifiable. *)
    let target =
      Capability.mint ~parent:root ~base:0x1000 ~length:0x1000
        ~perms:Perms.user_code
    in
    Capability.seal ~authority:root target Ufork_cheri.Otype.syscall_entry
  in
  let t =
  {
    engine;
    costs;
    config;
    trace = Trace.create ~engine ~costs ();
    phys;
    vfs = Vfs.create ();
    locks = make_locks ~engine config.Config.lock_mode;
    procs = Hashtbl.create 64;
    next_pid = 0;
    root;
    multi_as = multi_address_space;
    shared_pt =
      (if multi_address_space then None else Some (Page_table.create phys));
    next_area = user_arena_base;
    free_areas = [];
    fork_hook = None;
    fault_hook = None;
    areas = Area_index.empty;
    shms = Hashtbl.create 8;
    libs = Hashtbl.create 8;
    aslr =
      Option.map
        (fun seed -> Ufork_util.Prng.create ~seed)
        config.Config.aslr_seed;
    entry_cap;
  }
  in
  (* Refill/drain transfers against the shared pool run deep inside
     Phys (under whatever lock the caller holds — or none, on the fault
     path), so the pool lock is injected rather than taken by a kernel
     helper. Re-entry from {!with_frame_pool} is free: the Rlock only
     touches the underlying lock on the outermost acquire. Under the big
     lock the frame-pool lock is only ever held inside these guards,
     which never yield, so a refill that would find the shared pool
     empty skips the guard without changing the schedule: a fresh carve
     takes no lock round trip. The sharded kernel keeps the guard, whose
     acquire there can be an outermost one that waits (a thread that
     yields inside {!fresh_frame}'s emit can resume on a core with an
     empty freelist). *)
  Phys.set_pool_guard phys
    ~guard_empty:
      (match config.Config.lock_mode with
      | Config.Big_kernel_lock -> false
      | Config.Sharded_locks -> true)
    (fun f -> guard t.locks.pool f);
  t

let engine t = t.engine
let costs t = t.costs
let config t = t.config
let trace t = t.trace
let meter t = Trace.meter t.trace
let phys t = t.phys
let vfs t = t.vfs
let multi_address_space t = t.multi_as
let root_cap t = t.root
let set_fork_hook t f = t.fork_hook <- Some f
let fork_hook t = t.fork_hook
let set_fault_hook t f = t.fault_hook <- Some f

let locks t = t.locks
let set_locks t locks = t.locks <- locks

(* The legacy big-lock shim: under [Big_kernel_lock] this is THE
   serialization point (held for every syscall body); under sharded
   locking its slot is empty and the per-resource helpers below do the
   work. Lint rule D9 bans call sites outside this module so the sharded
   kernel cannot quietly grow back a global serialization point. Under
   the big lock the per-resource slots are empty instead: the caller
   already sits inside [with_biglock], as every syscall body does. *)
let with_biglock t f = guard t.locks.big f
let with_uproc_table t f = guard t.locks.uproc_table f
let with_fd_tables t f = guard t.locks.fd_tables f
let with_stats t f = guard t.locks.stats f

(* The frame-pool lock guards the shared pool behind the per-core
   freelists, so it is taken only when this allocation would actually
   touch shared state ({!Phys.needs_global}) — the common alloc/release
   pair runs entirely on the calling core's cache, lock-free. *)
let with_frame_pool t ~frames f =
  match t.locks.frame_pool with
  | Some l when Phys.needs_global t.phys frames -> Sync.Rlock.with_lock l f
  | Some _ | None -> f ()

(* One μprocess area (contiguous, page-aligned base) maps to one shard,
   so a fork orders exactly two of these. *)
let pt_shard_index ~area_base = area_base / Addr.page_size mod pt_shard_count

let with_pt_shard_pair t (a : Uproc.t) (b : Uproc.t) f =
  let shards = t.locks.pt_shards in
  let i = pt_shard_index ~area_base:a.Uproc.area_base in
  let j = pt_shard_index ~area_base:b.Uproc.area_base in
  if i = j then guard shards.(i) f
  else
    (* Ascending shard order: the global acquisition order that makes
       concurrent fork pairs deadlock-free. *)
    let lo, hi = if i < j then (i, j) else (j, i) in
    guard shards.(lo) (fun () -> guard shards.(hi) f)
[@@ufork.lock_order "lock.pt_shard < lock.pt_shard"]
(* The declared self-order: nesting inside the pt-shard class is legal
   here exactly because [lo < hi] — the index-ascending side condition
   the static rule D10 checks at constant-index sites and the runtime
   checker (R2) enforces per-index on every run. *)

(* Every mechanism event — cycles, counter bump, optional trace record —
   goes through the bus. Boot-time setup (and unit tests poking at the
   kernel directly) runs outside an engine thread; Trace.emit counts those
   events but skips the charge. *)
let pid_of = function Some (u : Uproc.t) -> u.Uproc.pid | None -> -1
let emit ?proc t event = Trace.emit t.trace ~pid:(pid_of proc) event

let with_span t ~name f = Trace.with_span t.trace ~name f

(* {1 Virtual-time stat sampling}

   Gauge snapshots for the profiler's time-series backend. The reader
   runs inside Trace's sampler hook, so it must stay emission-free:
   everything below is pure inspection of kernel state. *)

let stat_gauges t () =
  let frames = Phys.frames_in_use t.phys in
  let count_pending (u : Uproc.t) =
    Page_table.fold_range u.Uproc.pt
      ~vpn:(Addr.vpn_of_addr u.Uproc.area_base)
      ~count:(Addr.bytes_to_pages u.Uproc.area_bytes)
      ~init:0
      ~f:(fun _vpn pte acc ->
        match pte.Pte.share with
        | Pte.Cow_shared | Pte.Coa_shared | Pte.Copa_shared -> acc + 1
        | Pte.Private | Pte.Shm_shared -> acc)
  in
  let cow, rss_rev =
    Hashtbl.fold
      (fun _pid (u : Uproc.t) (cow, rss) ->
        match u.Uproc.state with
        | Uproc.Running ->
            ( cow + count_pending u,
              ( Trace.rss_bytes_key ~image:u.Uproc.image.Image.name
                  ~pid:u.Uproc.pid,
                u.Uproc.private_bytes )
              :: rss )
        | Uproc.Zombie _ -> (cow + count_pending u, rss)
        | _ -> (cow, rss))
      t.procs (0, [])
  in
  (Trace.frames_in_use_key, frames)
  :: (Trace.cow_pending_pages_key, cow)
  :: List.sort compare rss_rev

let enable_stat_sampling t ~interval =
  Trace.set_sampler t.trace ~interval (stat_gauges t)

let account_private _t (u : Uproc.t) ~bytes =
  u.Uproc.private_bytes <- u.Uproc.private_bytes + bytes

(* The charge for [n] fresh frames, paid under the frame-pool lock: one
   [Page_alloc n] emission and one accounting update stand for [n]
   per-page calls — identical cycles and counts (the cost is linear in
   [n]), far fewer trace records. *)
let charge_fresh_frames t u n =
  emit ~proc:u t (Event.Page_alloc n);
  account_private t u ~bytes:(n * Addr.page_size)

(* [charge_fresh_frames t u 1], spelled out so that [Page_alloc 1] is a
   constant the compiler allocates statically: this is the fault path,
   one call per copied page. *)
let fresh_frame t u =
  with_frame_pool t ~frames:1 (fun () ->
      emit ~proc:u t (Event.Page_alloc 1);
      account_private t u ~bytes:Addr.page_size;
      Phys.alloc t.phys)

let fresh_frames t u n =
  if n <= 0 then []
  else
    with_frame_pool t ~frames:n (fun () ->
        charge_fresh_frames t u n;
        List.init n (fun _ -> Phys.alloc t.phys))

(* The same charge, with the frames taken one at a time by the body,
   still under the frame-pool lock, so no list of them is built. *)
let with_fresh_frames t u n fill =
  if n > 0 then
    with_frame_pool t ~frames:n (fun () ->
        charge_fresh_frames t u n;
        let left = ref n in
        fill (fun () ->
            if !left = 0 then
              invalid_arg "Kernel.with_fresh_frames: more frames than charged";
            decr left;
            Phys.alloc t.phys);
        if !left > 0 then
          invalid_arg "Kernel.with_fresh_frames: fewer frames than charged")

(* {1 Areas} *)

let alloc_area t ~bytes_needed =
  let bytes = Addr.align_up bytes_needed Addr.page_size in
  (* Hole selection with splitting: the unused tail stays reusable. Under
     first fit, mixed-size churn still fragments the arena badly (small
     areas nibble the prefixes of the only holes large enough for big
     ones) — the §6 behaviour the fragmentation bench quantifies; best
     fit is the cheap mitigation. *)
  let take (b, s) others =
    let others =
      if s - bytes >= Addr.page_size then (b + bytes, s - bytes) :: others
      else others
    in
    t.free_areas <- others;
    Some b
  in
  let first_fit () =
    let rec find acc = function
      | [] -> None
      | (b, s) :: rest when s >= bytes -> take (b, s) (List.rev_append acc rest)
      | a :: rest -> find (a :: acc) rest
    in
    find [] t.free_areas
  in
  let best_fit () =
    let best =
      List.fold_left
        (fun acc (b, s) ->
          if s < bytes then acc
          else
            match acc with
            | Some (_, s') when s' <= s -> acc
            | Some _ | None -> Some (b, s))
        None t.free_areas
    in
    match best with
    | None -> None
    | Some (b, s) ->
        take (b, s) (List.filter (fun (b', _) -> b' <> b) t.free_areas)
  in
  let chosen =
    match t.config.Config.area_fit with
    | Config.First_fit -> first_fit ()
    | Config.Best_fit -> best_fit ()
  in
  match chosen with
  | Some base -> base
  | None ->
      (* ASLR (§3.7): randomize the base offset of each fresh area. *)
      let slide =
        match t.aslr with
        | None -> 0
        | Some g -> Ufork_util.Prng.int g 256 * Addr.page_size
      in
      let base = t.next_area + slide in
      t.next_area <- base + bytes + Addr.page_size (* guard *);
      base

(* {1 Process lifecycle} *)

let create_uproc t ?parent ?fds ~image () =
  with_uproc_table t @@ fun () ->
  t.next_pid <- t.next_pid + 1;
  let pid = t.next_pid in
  let pt =
    match t.shared_pt with
    | Some pt -> pt
    | None -> Page_table.create t.phys
  in
  let area_base =
    if t.multi_as then user_arena_base
    else alloc_area t ~bytes_needed:(Image.area_bytes image)
  in
  let parent_pid = Option.map (fun (p : Uproc.t) -> p.Uproc.pid) parent in
  let u = Uproc.create ~pid ?parent_pid ~image ~area_base ~pt ?fds () in
  account_private t u ~bytes:t.config.Config.kernel_overhead_bytes;
  (match parent with
  | Some p -> p.Uproc.children <- pid :: p.Uproc.children
  | None -> ());
  Hashtbl.replace t.procs pid u;
  (let entry = (Image.area_bytes image, pid) in
   t.areas <-
     Area_index.update area_base
       (function None -> Some [ entry ] | Some es -> Some (entry :: es))
       t.areas);
  u

let find_area_of_addr t addr =
  (* Predecessor query on the sorted index: only the area with the
     greatest base ≤ addr can contain it (areas are disjoint; multi-AS
     stacks share one base and sit in that key's entry list). *)
  match Area_index.find_last_opt (fun base -> base <= addr) t.areas with
  | None -> None
  | Some (base, entries) ->
      List.find_map
        (fun (bytes, _pid) ->
          if addr < base + bytes then Some (base, bytes) else None)
        entries

let find_uproc t pid = Hashtbl.find_opt t.procs pid

let map_zero_pages t u ~base ~bytes ?(read = true) ?(write = true)
    ?(exec = false) () =
  let pages = Addr.bytes_to_pages bytes in
  let vpn0 = Addr.vpn_of_addr base in
  with_frame_pool t ~frames:pages (fun () ->
      let mapped =
        Page_table.map_range u.Uproc.pt ~vpn:vpn0 ~count:pages (fun _v ->
            Some (Pte.private_page ~read ~write ~exec (Phys.alloc t.phys)))
      in
      (* One batched charge for the whole range. *)
      if mapped > 0 then charge_fresh_frames t u mapped)

let map_initial_image t u =
  let r = u.Uproc.regions in
  map_zero_pages t u ~base:r.Uproc.got_base ~bytes:r.Uproc.got_bytes ();
  map_zero_pages t u ~base:r.Uproc.code_base ~bytes:r.Uproc.code_bytes
    ~write:false ~exec:true ();
  map_zero_pages t u ~base:r.Uproc.data_base ~bytes:r.Uproc.data_bytes ();
  map_zero_pages t u ~base:r.Uproc.stack_base ~bytes:r.Uproc.stack_bytes ()

let materialize_heap_range t u ~addr ~len =
  if len > 0 then begin
    let base = Addr.align_down addr Addr.page_size in
    map_zero_pages t u ~base ~bytes:(addr + len - base) ()
  end

(* {1 Capabilities} *)

let area_cap t (u : Uproc.t) =
  (* Minted from the kernel root, but confined to [u]'s area — the
     provenance stamp records that confinement so capflow (R4) can tell
     delegated area authority from a leaked root. *)
  Capability.stamp
    (Capability.mint ~parent:t.root ~base:u.Uproc.area_base
       ~length:u.Uproc.area_bytes
       ~perms:
         Perms.(union user_data (union execute (union load_cap store_cap))))
    ~prov:u.Uproc.area_base

(* The capability handed to user code for a heap block. Under isolation it
   is bounded to the block; with isolation disabled the process gets a
   wide capability (the classic unikernel single-trust-domain model). *)
let user_block_cap t (u : Uproc.t) ~addr ~len =
  match t.config.Config.isolation with
  | Config.No_isolation ->
      (* Wide by design (single trust domain), but the authority is still
         [u]'s: stamp it so capflow does not mistake it for the root. *)
      Capability.stamp
        (Capability.with_cursor
           (Capability.mint ~parent:t.root ~base:0
              ~length:(Capability.length t.root) ~perms:Perms.user_data)
           addr)
        ~prov:u.Uproc.area_base
  | Config.Fault_isolation | Config.Full_isolation ->
      Capability.mint ~parent:(area_cap t u) ~base:addr ~length:len
        ~perms:Perms.user_data

let got_addr (u : Uproc.t) slot =
  let r = u.Uproc.regions in
  if slot < 0 || slot >= u.Uproc.image.Image.got_slots then
    invalid_arg "Kernel.got_addr: slot out of range";
  r.Uproc.got_base + (slot * Addr.granule_size)

let meta_addr (u : Uproc.t) index =
  let r = u.Uproc.regions in
  if index < 0 || index * Addr.granule_size >= r.Uproc.meta_bytes then
    invalid_arg "Kernel.meta_addr: index out of range";
  r.Uproc.meta_base + (index * Addr.granule_size)

(* {1 Signals (minimal: SIGKILL, §4.5's per-uprocess signals)} *)

exception Killed_signal

let sys_kill t pid =
  with_uproc_table t @@ fun () ->
  emit t Event.Kill;
  match find_uproc t pid with
  | Some target when target.Uproc.state = Uproc.Running -> (
      target.Uproc.killed <- true;
      (* If the target sleeps inside a syscall (pipe, wait, ...), wake it
         so the kill is delivered promptly. *)
      match target.Uproc.kernel_waker with
      | Some w when Engine.waker_pending w -> Engine.wake w
      | Some _ | None -> ())
  | Some _ | None -> raise (Api.Sys_error "ESRCH")

(* Checked at every kernel entry and blocking resume: a pending kill turns
   into immediate termination (the caller unwinds via Killed_signal, which
   spawn_process converts into the exit path). *)
let check_killed (u : Uproc.t) =
  if u.Uproc.killed && u.Uproc.state = Uproc.Running then raise Killed_signal

(* {1 Syscall plumbing} *)

let syscall_entry_cap t = t.entry_cap

(* A system call's static site: its span name and both entry events,
   built once per name at module init, so entering a syscall builds no
   string and allocates no event — and the trace's physically compared
   memos hit on the shared name. *)
type syscall = { span : string; sealed : Event.t; trap : Event.t }

let syscall name =
  {
    span = "syscall." ^ name;
    sealed = Event.Syscall { name; trap = false };
    trap = Event.Syscall { name; trap = true };
  }

module Site = struct
  let fork = syscall "fork"
  let exit = syscall "exit"
  let wait = syscall "wait"
  let spawn = syscall "spawn"
  let kill = syscall "kill"
  let brk = syscall "brk"
  let open_ = syscall "open"
  let close = syscall "close"
  let read = syscall "read"
  let pread = syscall "pread"
  let write = syscall "write"
  let rename = syscall "rename"
  let unlink = syscall "unlink"
  let pipe = syscall "pipe"
  let shm_open = syscall "shm_open"
  let mmap_lib = syscall "mmap_lib"
end

let syscall_entry_event t site =
  match t.config.Config.syscall_mode with
  | Config.Sealed_entry ->
      (* The entry really is a sealed-capability invocation: branching to
         anything else in kernel code is impossible for a uprocess. *)
      Capability.check_invoke t.entry_cap;
      site.sealed
  | Config.Trap -> site.trap

(* Argument-validation work at entry, per isolation level; preallocated
   like the sites. *)
let full_validation = Event.Entry_validation 60
let fault_validation = Event.Entry_validation 20

(* Everything entry charges before the body runs. *)
let enter_syscall t ~pid ~bytes site =
  Trace.emit t.trace ~pid (syscall_entry_event t site);
  (match t.config.Config.isolation with
  | Config.Full_isolation -> Trace.emit t.trace ~pid full_validation
  | Config.Fault_isolation -> Trace.emit t.trace ~pid fault_validation
  | Config.No_isolation -> ());
  (* TOCTTOU hardening sets up the kernel-side shadow copies of
     by-reference arguments on every entry (§4.4). *)
  if t.config.Config.toctou then Trace.emit t.trace ~pid Event.Toctou_setup;
  if bytes > 0 then begin
    (* copyin/copyout of the payload... *)
    Trace.emit t.trace ~pid (Event.Copy_bytes bytes);
    (* ...plus the TOCTTOU double copy when protection is on. *)
    if t.config.Config.toctou then
      Trace.emit t.trace ~pid (Event.Toctou_bytes bytes)
  end

let with_syscall t ?proc ?(bytes = 0) site f =
  (match proc with Some u -> check_killed u | None -> ());
  (* The span covers everything from kernel entry to return, so every
     cycle a syscall charges — entry, validation, copies, body, faults it
     services — attributes under "syscall.<name>". Opened and closed by
     hand rather than through [Trace.with_span], so a syscall allocates
     no closure for it. *)
  let span = Trace.open_span t.trace ~name:site.span in
  match
    enter_syscall t ~pid:(pid_of proc) ~bytes site;
    with_biglock t f
  with
  | v ->
      Trace.close_span t.trace span;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Trace.close_span t.trace span;
      Printexc.raise_with_backtrace e bt

let kernel_wait ?proc t cond =
  (* Under the BKL, drop one recursion level across the sleep (the
     caller sits at depth 1 inside {!with_syscall}); the sharded kernel
     holds no global lock here, so there is nothing to drop. *)
  Option.iter Sync.Rlock.release t.locks.big;
  (match proc with
  | None -> Sync.Cond.wait cond
  | Some (u : Uproc.t) ->
      (* An interruptible sleep: the waker sits in the condition's queue
         and is also reachable by signal delivery. *)
      Engine.suspend (fun w ->
          u.Uproc.kernel_waker <- Some w;
          Sync.Cond.add_waiter cond w);
      u.Uproc.kernel_waker <- None);
  (* Waking up is a context switch; on a multi-address-space kernel it also
     switches page tables and flushes the TLB. *)
  emit ?proc t Event.Context_switch;
  if t.multi_as then emit ?proc t Event.Address_space_switch;
  Option.iter Sync.Rlock.acquire t.locks.big;
  match proc with
  | Some u ->
      if u.Uproc.killed && u.Uproc.state = Uproc.Running then
        (* Terminated while blocked: unwind out of the syscall. The
           enclosing with_syscall releases the kernel lock on the way. *)
        raise Killed_signal
  | None -> ()

(* {1 Faults} *)

(* Fault service deliberately does not take the big lock: each handler
   only writes its own process's page-table entries plus atomic frame
   refcounts, so concurrent CoW/CoA service on different cores is safe —
   and is where the multicore fork advantage (Fig. 6) comes from. The
   happens-before race detector checks exactly this claim. *)
let handle_fault t u ~addr ~access =
  match t.fault_hook with
  | Some h -> h u ~addr ~access
  | None ->
      failwith
        (Format.asprintf "unhandled %a fault at %#x (no fault hook)"
           Vas.pp_access access addr)

let rec with_faults t u f =
  try f ()
  with Vas.Fault { addr; access; _ } ->
    handle_fault t u ~addr ~access;
    with_faults t u f

(* {1 Heap} *)

(* Simulate user writes to currently write-protected pages: deliver the
   write fault to the flavour's handler so CoW/CoA/CoPA resolution (and its
   costs) happen exactly as they would for a real store. *)
let touch_pages_for_write t (u : Uproc.t) vpns =
  List.iter
    (fun vpn ->
      match Page_table.lookup u.Uproc.pt ~vpn with
      | Some pte when not pte.Pte.write ->
          handle_fault t u ~addr:(Addr.addr_of_vpn vpn) ~access:Vas.Write
      | Some _ | None -> ())
    vpns

(* A forked child's first allocation re-initializes its allocator arena,
   dirtying a configured fraction of the live heap (observed CheriBSD
   behaviour; see Config.arena_pretouch_fraction). *)
let arena_pretouch t (u : Uproc.t) =
  let frac = t.config.Config.arena_pretouch_fraction in
  if u.Uproc.forked && (not u.Uproc.first_alloc_done) && frac > 0. then begin
    u.Uproc.first_alloc_done <- true;
    let used = Tinyalloc.used_bytes u.Uproc.allocator in
    let pages =
      int_of_float (frac *. float_of_int used /. float_of_int Addr.page_size)
    in
    if pages > 0 then begin
      emit ~proc:u t (Event.Arena_pretouch pages);
      let r = u.Uproc.regions in
      let vpn0 = Addr.vpn_of_addr r.Uproc.heap_base in
      let limit = vpn0 + Addr.bytes_to_pages r.Uproc.heap_bytes in
      let touched = ref 0 in
      let vpn = ref vpn0 in
      let batch = ref [] in
      while !touched < pages && !vpn < limit do
        (match Page_table.lookup u.Uproc.pt ~vpn:!vpn with
        | Some pte when not pte.Pte.write ->
            batch := !vpn :: !batch;
            incr touched
        | Some _ | None -> ());
        incr vpn
      done;
      touch_pages_for_write t u (List.rev !batch)
    end
  end

let sys_malloc t (u : Uproc.t) size =
  arena_pretouch t u;
  match Tinyalloc.alloc u.Uproc.allocator size with
  | exception Tinyalloc.Out_of_heap -> raise (Api.Sys_error "ENOMEM")
  | block ->
      emit ~proc:u t Event.Malloc;
      (* Back the block with physical pages. *)
      materialize_heap_range t u ~addr:block.Tinyalloc.addr
        ~len:block.Tinyalloc.size;
      (* Reallocation hygiene: recycled memory must not carry stale valid
         capabilities (heap temporal safety; the paper's CHERI stack does
         this with Cornucopia-style revocation). The clears are ordinary
         stores, so pages shared with a forked peer take their write fault
         (CoW/CoA/CoPA copy) first. Counted per granule. *)
      (let vpn0 = Addr.vpn_of_addr block.Tinyalloc.addr in
       let vpn1 =
         Addr.vpn_of_addr (block.Tinyalloc.addr + block.Tinyalloc.size - 1)
       in
       touch_pages_for_write t u
         (List.init (vpn1 - vpn0 + 1) (fun i -> vpn0 + i)));
      Vas.kernel_clear_tags u.Uproc.pt ~addr:block.Tinyalloc.addr
        ~len:block.Tinyalloc.size;
      emit ~proc:u t
        (Event.Granule_scan (block.Tinyalloc.size / Addr.granule_size));
      (* Record the block's metadata granule: a capability to the block
         stored in the metadata region (proactively copied at fork). *)
      let maddr = meta_addr u block.Tinyalloc.meta_index in
      materialize_heap_range t u ~addr:maddr ~len:Addr.granule_size;
      let block_cap =
        user_block_cap t u ~addr:block.Tinyalloc.addr ~len:block.Tinyalloc.size
      in
      with_faults t u (fun () ->
          Vas.kernel_store_cap u.Uproc.pt ~addr:maddr block_cap);
      block_cap

let sys_free t (u : Uproc.t) cap =
  (* The cursor, not the base, identifies the block: with isolation
     disabled user capabilities are address-space-wide and only the cursor
     carries the pointer value. *)
  let addr = Capability.cursor cap in
  match Tinyalloc.free u.Uproc.allocator addr with
  | exception Invalid_argument _ -> raise (Api.Sys_error "EINVAL: bad free")
  | block ->
      emit ~proc:u t Event.Free;
      let maddr = meta_addr u block.Tinyalloc.meta_index in
      with_faults t u (fun () ->
          Vas.kernel_store_cap u.Uproc.pt ~addr:maddr Capability.null)

(* {1 Exit / wait} *)

let reap t (u : Uproc.t) (child : Uproc.t) =
  with_uproc_table t @@ fun () ->
  (match child.Uproc.state with
  | Uproc.Zombie _ -> ()
  | _ -> invalid_arg "Kernel.reap: not a zombie");
  child.Uproc.state <- Uproc.Reaped;
  u.Uproc.children <-
    List.filter (fun pid -> pid <> child.Uproc.pid) u.Uproc.children;
  (* Tear the child's memory down. *)
  let vpn0 = Addr.vpn_of_addr child.Uproc.area_base in
  let count = Addr.bytes_to_pages child.Uproc.area_bytes in
  Page_table.unmap_range child.Uproc.pt ~vpn:vpn0 ~count;
  t.areas <-
    Area_index.update child.Uproc.area_base
      (function
        | None -> None
        | Some es -> (
            match
              List.filter (fun (_, pid) -> pid <> child.Uproc.pid) es
            with
            | [] -> None
            | es -> Some es))
      t.areas;
  if not t.multi_as then
    t.free_areas <-
      (child.Uproc.area_base, child.Uproc.area_bytes) :: t.free_areas

let sys_exit t (u : Uproc.t) status =
  with_uproc_table t (fun () ->
      emit ~proc:u t Event.Exit;
      Fdesc.Fdtable.close_all u.Uproc.fds;
      u.Uproc.state <- Uproc.Zombie status;
      match u.Uproc.parent_pid with
      | Some ppid -> (
          match find_uproc t ppid with
          | Some parent -> Sync.Cond.broadcast parent.Uproc.exited_child
          | None -> ())
      | None -> ());
  raise (Api.Exited status)

let sys_wait t (u : Uproc.t) =
  let rec zombie_child () =
    let z =
      List.find_map
        (fun pid ->
          match find_uproc t pid with
          | Some c -> (
              match c.Uproc.state with
              | Uproc.Zombie status -> Some (c, status)
              | _ -> None)
          | None -> None)
        u.Uproc.children
    in
    match z with
    | Some (child, status) ->
        reap t u child;
        (child.Uproc.pid, status)
    | None ->
        if u.Uproc.children = [] then raise (Api.Sys_error "ECHILD");
        kernel_wait ~proc:u t u.Uproc.exited_child;
        zombie_child ()
  in
  zombie_child ()

(* {1 File and pipe syscalls} *)

let sys_open t (u : Uproc.t) name mode =
  emit ~proc:u t Event.File_op;
  match Vfs.open_ t.vfs name mode with
  | f -> Fdesc.Fdtable.alloc u.Uproc.fds (Fdesc.Vfs_file f)
  | exception Not_found -> raise (Api.Sys_error ("ENOENT: " ^ name))

let sys_close _t (u : Uproc.t) fd =
  match Fdesc.Fdtable.close u.Uproc.fds fd with
  | () -> ()
  | exception Not_found -> raise (Api.Sys_error "EBADF")

let sys_pipe t (u : Uproc.t) =
  emit ~proc:u t Event.File_op;
  let p = Pipe.create () in
  let rfd = Fdesc.Fdtable.alloc u.Uproc.fds (Fdesc.Pipe_read p) in
  let wfd = Fdesc.Fdtable.alloc u.Uproc.fds (Fdesc.Pipe_write p) in
  (rfd, wfd)

(* The blocking loops are top-level functions, not per-call closures. *)
let rec pipe_read t u p n =
  match Pipe.try_read p n with
  | Pipe.Data b -> b
  | Pipe.Eof -> Bytes.empty
  | Pipe.Empty ->
      kernel_wait ~proc:u t (Pipe.readable p);
      pipe_read t u p n

let rec pipe_write t u p b ~off =
  if off >= Bytes.length b then Bytes.length b
  else
    match Pipe.try_write p ~off b with
    | Pipe.Wrote n -> pipe_write t u p b ~off:(off + n)
    | Pipe.Would_block ->
        kernel_wait ~proc:u t (Pipe.writable p);
        pipe_write t u p b ~off
    | exception Pipe.Broken_pipe -> raise (Api.Sys_error "EPIPE")

(* A zero-length read returns at once, even on an empty pipe; a negative
   length is EINVAL on every descriptor kind. *)
let sys_read t (u : Uproc.t) fd n =
  match Fdesc.Fdtable.get u.Uproc.fds fd with
  | exception Not_found -> raise (Api.Sys_error "EBADF")
  | _ when n < 0 -> raise (Api.Sys_error "EINVAL")
  | Fdesc.Null -> Bytes.empty
  | Fdesc.Vfs_file f -> Vfs.read f n
  | Fdesc.Pipe_write _ -> raise (Api.Sys_error "EBADF: write end")
  | Fdesc.Pipe_read p ->
      Trace.emit t.trace ~pid:u.Uproc.pid Event.Pipe_op;
      if n = 0 then Bytes.empty else pipe_read t u p n

let sys_pread (u : Uproc.t) fd ~off n =
  match Fdesc.Fdtable.get u.Uproc.fds fd with
  | exception Not_found -> raise (Api.Sys_error "EBADF")
  | _ when n < 0 || off < 0 -> raise (Api.Sys_error "EINVAL")
  | Fdesc.Vfs_file f -> Vfs.pread f ~off n
  | Fdesc.Null | Fdesc.Pipe_read _ | Fdesc.Pipe_write _ ->
      raise (Api.Sys_error "ESPIPE")

let sys_write t (u : Uproc.t) fd b =
  match Fdesc.Fdtable.get u.Uproc.fds fd with
  | exception Not_found -> raise (Api.Sys_error "EBADF")
  | Fdesc.Null -> Bytes.length b
  | Fdesc.Vfs_file f -> Vfs.write f b
  | Fdesc.Pipe_read _ -> raise (Api.Sys_error "EBADF: read end")
  | Fdesc.Pipe_write p ->
      Trace.emit t.trace ~pid:u.Uproc.pid Event.Pipe_op;
      pipe_write t u p b ~off:0

(* {1 Shared memory (§3.7)} *)

(* shm_open + map in one step: find or create the named segment, then map
   its frames at a page-aligned window carved from the caller's heap
   reservation. Forks keep these pages shared (never copied, never
   relocated targets — the window sits at the same area offset in parent
   and child, so relocated capabilities land on the same frames). *)
(* Shared mapping machinery used by both shm_open and shared libraries
   (§3.7): find-or-create the named frame set, then map it at a
   page-aligned window carved from the caller's heap reservation. *)
let map_named_segment t (u : Uproc.t) ~table ~name ~bytes ~writable ~exec =
  if bytes <= 0 then raise (Api.Sys_error "EINVAL: segment size");
  emit ~proc:u t Event.File_op;
  let bytes = Addr.align_up bytes Addr.page_size in
  let pages = bytes / Addr.page_size in
  let frames =
    match Hashtbl.find_opt table name with
    | Some frames ->
        if Array.length frames <> pages then
          raise (Api.Sys_error "EINVAL: segment size mismatch");
        frames
    | None ->
        with_frame_pool t ~frames:pages (fun () ->
            let frames = Array.init pages (fun _ -> Phys.alloc t.phys) in
            emit ~proc:u t (Event.Page_alloc pages);
            Hashtbl.replace table name frames;
            frames)
  in
  let block =
    match Tinyalloc.alloc u.Uproc.allocator (bytes + Addr.page_size) with
    | b -> b
    | exception Tinyalloc.Out_of_heap -> raise (Api.Sys_error "ENOMEM")
  in
  let base = Addr.align_up block.Tinyalloc.addr Addr.page_size in
  let vpn0 = Addr.vpn_of_addr base in
  emit ~proc:u t (Event.Pte_copy (Array.length frames));
  Array.iteri
    (fun i frame ->
      let vpn = vpn0 + i in
      if Page_table.is_mapped u.Uproc.pt ~vpn then
        Page_table.unmap u.Uproc.pt ~vpn;
      Page_table.map_shared u.Uproc.pt ~vpn
        (Pte.make ~read:true ~write:writable ~exec ~share:Pte.Shm_shared frame))
    frames;
  (base, bytes)

let sys_shm_open t (u : Uproc.t) name ~bytes =
  emit ~proc:u t Event.Shm_open;
  let base, bytes =
    map_named_segment t u ~table:t.shms ~name ~bytes ~writable:true
      ~exec:false
  in
  user_block_cap t u ~addr:base ~len:bytes

(* "Shared libraries can be supported by mapping those libraries in each
   uprocess ... creating capabilities with the proper permissions"
   (§3.7): read-only, executable, physically shared. *)
let sys_map_library t (u : Uproc.t) name ~bytes =
  emit ~proc:u t Event.Map_library;
  let base, bytes =
    map_named_segment t u ~table:t.libs ~name ~bytes ~writable:false
      ~exec:true
  in
  match t.config.Config.isolation with
  | Config.No_isolation ->
      Capability.stamp
        (Capability.with_cursor
           (Capability.mint ~parent:t.root ~base:0
              ~length:(Capability.length t.root)
              ~perms:Perms.(union load (union load_cap execute)))
           base)
        ~prov:u.Uproc.area_base
  | Config.Fault_isolation | Config.Full_isolation ->
      Capability.mint ~parent:(area_cap t u) ~base ~length:bytes
        ~perms:Perms.(union load (union load_cap execute))

(* {1 posix_spawn (§2.3's fork+exec replacement)} *)

(* Start a fresh process from the same program image without duplicating
   the parent state: the modern replacement for the U1 fork+exec pattern
   that SASOSes like OSv/Junction support instead of fork. *)
let rec sys_spawn t (u : Uproc.t) main =
  emit ~proc:u t Event.Spawn;
  let fds = with_fd_tables t (fun () -> Fdesc.Fdtable.dup_all u.Uproc.fds) in
  let child = create_uproc t ~parent:u ~fds ~image:u.Uproc.image () in
  child.Uproc.forked <- false (* fresh state, not a fork *);
  map_initial_image t child;
  emit ~proc:u t Event.Thread_create;
  spawn_process t child main;
  child.Uproc.pid

(* {1 The API builder} *)

and build_api t ?(reloc = fun c -> c) (u : Uproc.t) : Api.t =
  let pt = u.Uproc.pt in
  (* Boxed once per process: a [~proc:u] per call would allocate. *)
  let proc = Some u in
  let faulty f = with_faults t u f in
  (* On real hardware a process cannot possess a valid capability into
     another μprocess's area: fork relocates registers and memory, and
     monotonicity prevents re-deriving one. In the simulation, application
     closures could smuggle such a value across a fork, so under isolation
     the API refuses foreign capabilities — restoring the invariant the
     architecture enforces (§4.3). *)
  let confined cap =
    (match t.config.Config.isolation with
    | Config.No_isolation -> ()
    | Config.Fault_isolation | Config.Full_isolation ->
        if
          Capability.tag cap
          && not
               (Capability.in_range cap ~lo:u.Uproc.area_base
                  ~hi:(u.Uproc.area_base + u.Uproc.area_bytes))
        then
          raise
            (Capability.Violation
               (Format.asprintf
                  "capability %a does not belong to uprocess %d" Capability.pp
                  cap u.Uproc.pid)));
    cap
  in
  {
    Api.getpid = (fun () -> u.Uproc.pid);
    fork =
      (fun child_main ->
        match t.fork_hook with
        | None -> raise (Api.Sys_error "ENOSYS: fork")
        | Some hook ->
            with_syscall t ?proc Site.fork (fun () -> hook u child_main));
    exit = (fun status -> with_syscall t ?proc Site.exit (fun () -> sys_exit t u status));
    wait =
      (fun () -> with_syscall t ?proc Site.wait (fun () -> sys_wait t u));
    spawn =
      (fun main ->
        with_syscall t ?proc Site.spawn (fun () -> sys_spawn t u main));
    kill =
      (fun pid -> with_syscall t ?proc Site.kill (fun () -> sys_kill t pid));
    reloc;
    malloc = (fun size -> with_syscall t ?proc Site.brk (fun () -> sys_malloc t u size));
    free =
      (fun cap ->
        let cap = confined cap in
        with_syscall t ?proc Site.brk (fun () -> sys_free t u cap));
    read_bytes =
      (fun cap ~off ~len ->
        let cap = confined cap in
        faulty (fun () ->
            Vas.read_bytes pt ~via:cap
              ~addr:(Capability.cursor cap + off)
              ~len));
    write_bytes =
      (fun cap ~off b ->
        let cap = confined cap in
        faulty (fun () ->
            Vas.write_bytes pt ~via:cap ~addr:(Capability.cursor cap + off) b));
    read_u64 =
      (fun cap ~off ->
        let cap = confined cap in
        faulty (fun () ->
            Vas.read_u64 pt ~via:cap ~addr:(Capability.cursor cap + off)));
    write_u64 =
      (fun cap ~off v ->
        let cap = confined cap in
        faulty (fun () ->
            Vas.write_u64 pt ~via:cap ~addr:(Capability.cursor cap + off) v));
    load_cap =
      (fun cap ~off ->
        let cap = confined cap in
        faulty (fun () ->
            Vas.load_cap pt ~via:cap ~addr:(Capability.cursor cap + off)));
    store_cap =
      (fun cap ~off v ->
        let cap = confined cap in
        faulty (fun () ->
            Vas.store_cap pt ~via:cap ~addr:(Capability.cursor cap + off) v));
    got_set =
      (fun slot cap ->
        let addr = got_addr u slot in
        faulty (fun () ->
            Vas.store_cap pt
              ~via:(Capability.with_cursor (area_cap t u) addr)
              ~addr cap));
    got_get =
      (fun slot ->
        let addr = got_addr u slot in
        faulty (fun () ->
            Vas.load_cap pt
              ~via:(Capability.with_cursor (area_cap t u) addr)
              ~addr));
    compute =
      (fun cycles ->
        Trace.with_span t.trace ~name:"user.compute" (fun () ->
            Trace.emit t.trace ~pid:u.Uproc.pid (Event.Compute cycles)));
    now = (fun () -> Engine.now t.engine);
    open_ =
      (fun name mode -> with_syscall t ?proc Site.open_ (fun () -> sys_open t u name mode));
    close = (fun fd -> with_syscall t ?proc Site.close (fun () -> sys_close t u fd));
    read =
      (fun fd n ->
        with_syscall t ?proc ~bytes:n Site.read (fun () -> sys_read t u fd n));
    pread =
      (fun fd ~off n ->
        with_syscall t ?proc ~bytes:n Site.pread (fun () ->
            sys_pread u fd ~off n));
    write =
      (fun fd b ->
        with_syscall t ?proc ~bytes:(Bytes.length b) Site.write (fun () ->
            sys_write t u fd b));
    rename =
      (fun ~src ~dst ->
        with_syscall t ?proc Site.rename (fun () ->
            emit ~proc:u t Event.File_op;
            try Vfs.rename t.vfs ~src ~dst
            with Not_found -> raise (Api.Sys_error ("ENOENT: " ^ src))));
    unlink =
      (fun name ->
        with_syscall t ?proc Site.unlink (fun () ->
            emit ~proc:u t Event.File_op;
            try Vfs.unlink t.vfs name
            with Not_found -> raise (Api.Sys_error ("ENOENT: " ^ name))));
    pipe = (fun () -> with_syscall t ?proc Site.pipe (fun () -> sys_pipe t u));
    shm_open =
      (fun name bytes ->
        with_syscall t ?proc Site.shm_open (fun () ->
            sys_shm_open t u name ~bytes));
    map_library =
      (fun name bytes ->
        with_syscall t ?proc Site.mmap_lib (fun () ->
            sys_map_library t u name ~bytes));
    stats_private_bytes = (fun () -> u.Uproc.private_bytes);
    stats_heap_used = (fun () -> Tinyalloc.used_bytes u.Uproc.allocator);
    sleep =
      (fun cycles ->
        Engine.sleep cycles;
        emit ~proc:u t Event.Context_switch;
        if t.multi_as then emit ~proc:u t Event.Address_space_switch);
    yield =
      (fun () ->
        Engine.yield ();
        emit ~proc:u t Event.Context_switch;
        if t.multi_as then emit ~proc:u t Event.Address_space_switch);
  }

and spawn_process t ?affinity ?reloc (u : Uproc.t) main =
  let name = u.Uproc.image.Image.name ^ "." ^ string_of_int u.Uproc.pid in
  ignore
    (Engine.spawn ?affinity ~name t.engine (fun () ->
         let api = build_api t ?reloc u in
         (* The exit path must not re-check the kill flag: a killed
            process has to be able to die. *)
         let finish status =
           match with_syscall t Site.exit (fun () -> sys_exit t u status) with
           | () -> ()
           | exception Api.Exited _ -> ()
         in
         match main api with
         | () -> finish 0 (* normal return = exit 0 *)
         | exception Api.Exited _ -> ()
         | exception Killed_signal -> finish 137))

let last_fork_latency t = Trace.last_fork_latency t.trace

(* {1 Introspection for the state sanitizer} *)

let fold_uprocs t ~init ~f =
  let pids = Hashtbl.fold (fun pid _ acc -> pid :: acc) t.procs [] in
  List.fold_left
    (fun acc pid -> f acc (Hashtbl.find t.procs pid))
    init
    (List.sort compare pids)

let chaos_leak_root t =
  (* Chaos-only: hand the kernel's root capability to a μprocess by
     storing it — unconfined, full address space, all permissions — into
     the first running process's GOT slot 0. The architectural checks
     cannot object (the kernel may store anything); only the capflow
     taint invariant R4 can notice that root authority became reachable
     from user pages. *)
  let victim =
    fold_uprocs t ~init:None ~f:(fun acc (u : Uproc.t) ->
        match acc with
        | Some _ -> acc
        | None -> if u.Uproc.state = Uproc.Running then Some u else None)
  in
  match victim with
  | None -> false
  | Some u ->
      let addr = got_addr u 0 in
      Vas.kernel_store_cap u.Uproc.pt ~addr
        (Capability.with_cursor t.root addr);
      true

let areas t =
  Area_index.fold
    (fun base entries acc ->
      List.fold_left
        (fun acc (bytes, pid) -> (base, bytes, pid) :: acc)
        acc entries)
    t.areas []
  |> List.rev

let named_segment_frames t =
  let collect prefix table acc =
    Hashtbl.fold
      (fun name frames acc -> (prefix ^ name, frames) :: acc)
      table acc
  in
  List.sort compare (collect "shm:" t.shms (collect "lib:" t.libs []))

(* Virtual-arena accounting for the fragmentation study (§6). *)
let arena_span t = t.next_area - user_arena_base

let live_area_bytes t =
  Area_index.fold
    (fun _base entries acc ->
      List.fold_left (fun acc (bytes, _) -> acc + bytes) acc entries)
    t.areas 0
let pp_meter ppf t = Meter.pp ppf (Trace.meter t.trace)
