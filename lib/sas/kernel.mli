(** The OS kernel kit.

    This module implements everything an OS flavour needs except the fork
    mechanism and the post-fork fault resolution, which are supplied as
    hooks: μFork installs CoW/CoA/CoPA copying with capability relocation
    ({!Ufork_core.Fork}); the monolithic baseline installs classic CoW in
    per-process address spaces; the VM-clone baseline installs whole-image
    copying. Shared here: μprocess areas and page mapping, the per-process
    allocator with in-memory metadata, the GOT, syscall entry costing
    (sealed vs trap), kernel locking (legacy big lock or sharded
    per-resource locks, per {!Config.lock_mode}), pipes, the ramdisk
    VFS, wait/exit/reap, and the {!Api.t} builder.

    All operations that consume simulated time emit a typed
    {!Ufork_sim.Event.t} through the kernel's {!Ufork_sim.Trace.t} bus,
    which charges the machine's {!Ufork_sim.Costs.t} and counts the event
    in one step — so benchmarks can audit that latency is exactly the sum
    of counted work ({!Ufork_sim.Trace.audit}). *)

module Capability = Ufork_cheri.Capability

type t

(** {1 Construction} *)

val create :
  engine:Ufork_sim.Engine.t ->
  costs:Ufork_sim.Costs.t ->
  config:Config.t ->
  multi_address_space:bool ->
  unit ->
  t
(** [multi_address_space = false] gives the single-address-space layout:
    one global page table, μprocess areas carved from a shared arena.
    [true] gives one page table per process, every process at the same
    base address. *)

val engine : t -> Ufork_sim.Engine.t
val costs : t -> Ufork_sim.Costs.t
val config : t -> Config.t

val trace : t -> Ufork_sim.Trace.t
(** The kernel's mechanism-event bus. *)

val meter : t -> Ufork_sim.Meter.t
(** The bus's derived counter view (read-only; writes belong in
    {!emit}). *)

val phys : t -> Ufork_mem.Phys.t
val vfs : t -> Vfs.t
val multi_address_space : t -> bool
val root_cap : t -> Capability.t
(** The kernel's root capability (boot-time authority). *)

val set_fork_hook : t -> (Uproc.t -> (Api.t -> unit) -> int) -> unit
(** The fork implementation: duplicate [parent], spawn the child running
    the continuation, return the child pid. Runs with syscall entry already
    charged and the kernel lock held. *)

val fork_hook : t -> (Uproc.t -> (Api.t -> unit) -> int) option
(** The installed fork implementation, so a checker or a fault injection
    can wrap it for one machine ([set_fork_hook] with a closure calling
    the previous hook). *)

val set_fault_hook :
  t ->
  (Uproc.t -> addr:int -> access:Ufork_mem.Vas.access -> unit) ->
  unit
(** Resolve an MMU fault (CoW/CoA/CoPA copy, …) so the access can retry.
    Must raise if the fault is not resolvable (a real crash). *)

(** {1 Processes} *)

val create_uproc :
  t -> ?parent:Uproc.t -> ?fds:Fdesc.Fdtable.t -> image:Image.t -> unit ->
  Uproc.t
(** Allocate a pid and an area (or reuse a freed one), build the μprocess
    record with its page table (shared or private per
    [multi_address_space]), and register it. No pages are mapped. *)

val map_initial_image : t -> Uproc.t -> unit
(** Eagerly map GOT, code, data and stack regions with fresh zero frames
    (heap and allocator metadata materialize on demand), charging
    page allocations and accounting them to the process. *)

val spawn_process :
  t ->
  ?affinity:int ->
  ?reloc:(Capability.t -> Capability.t) ->
  Uproc.t ->
  (Api.t -> unit) ->
  unit
(** Start the process main thread on the engine. Catches {!Api.Exited}
    (and turns a normal return into exit 0) and performs kernel-side exit:
    close fds, mark zombie, wake the parent. *)

val find_uproc : t -> int -> Uproc.t option
val live_process_count : t -> int

val find_area_of_addr : t -> int -> (int * int) option
(** The (base, bytes) of the live-or-zombie μprocess area containing an
    address; [None] once the owner has been reaped (a capability into it is
    dangling and must not be relocated — its tag is cleared instead).
    O(log areas): a predecessor query on a sorted interval index, not a
    scan of the live-area list. *)

(** {1 Kernel internals exposed to fork implementations} *)

val area_cap : t -> Uproc.t -> Capability.t
(** A kernel capability covering exactly the μprocess area. *)

val alloc_area : t -> bytes_needed:int -> int
(** Reserve a contiguous area of the shared arena (single address space
    only); reuses reaped areas first. *)

val fresh_frame : t -> Uproc.t -> Ufork_mem.Phys.frame
(** Allocate a physical frame, charging [page_alloc] and attributing the
    memory to the process. *)

val fresh_frames : t -> Uproc.t -> int -> Ufork_mem.Phys.frame list
(** Allocate [n] frames with one batched [Page_alloc n] charge and one
    accounting update — same cycles and counts as [n] {!fresh_frame}
    calls (the cost is linear), one trace record. [n <= 0] is a no-op. *)

val with_fresh_frames :
  t -> Uproc.t -> int -> ((unit -> Ufork_mem.Phys.frame) -> unit) -> unit
(** {!fresh_frames}'s charge without the list: [with_fresh_frames t u n
    fill] runs [fill take] under the frame-pool lock, where each
    [take ()] allocates one of the [n] frames. [fill] must take exactly
    [n] ([Invalid_argument] otherwise). [n <= 0] is a no-op. *)

val account_private : t -> Uproc.t -> bytes:int -> unit

val emit : ?proc:Uproc.t -> t -> Ufork_sim.Event.t -> unit
(** Send one mechanism event through the bus: charge its cycles and count
    it atomically (cycles are skipped outside an engine thread, e.g.
    during boot-time setup in unit tests). Fork implementations emit their
    page-copy/relocation events here. *)

val with_span : t -> name:string -> (unit -> 'a) -> 'a
(** Phase-attribution span on this kernel's trace: every cycle charged
    while the span is innermost on the current engine thread counts as
    its self time (see {!Ufork_sim.Trace.with_span}). Charges nothing
    itself. *)

val enable_stat_sampling : t -> interval:int64 -> unit
(** Register the kernel's gauge snapshot as the trace's virtual-time
    sampler: every [interval] simulated cycles (observed at the next
    emission) record [frames_in_use], [cow_pending_pages] (PTEs still in
    a CoW/CoA/CoPA shared state across live and zombie μprocesses) and
    [rss_bytes.<image>.<pid>] per running μprocess. Read the series back
    with {!Ufork_sim.Trace.samples} / {!Ufork_sim.Trace.samples_csv}. *)

val map_zero_pages :
  t ->
  Uproc.t ->
  base:int ->
  bytes:int ->
  ?read:bool ->
  ?write:bool ->
  ?exec:bool ->
  unit ->
  unit
(** Map fresh zero frames over every not-yet-mapped page of the range.
    Defaults: readable, writable, non-executable. *)

val materialize_heap_range : t -> Uproc.t -> addr:int -> len:int -> unit
(** Ensure pages backing [addr, addr+len) exist (fresh zero frames). *)

val got_addr : Uproc.t -> int -> int
(** Address of a GOT slot. Raises [Invalid_argument] on slot overflow. *)

val meta_addr : Uproc.t -> int -> int
(** Address of an allocator-metadata granule. *)

val touch_pages_for_write : t -> Uproc.t -> int list -> unit
(** Simulate user stores to the given vpns: any write-protected mapping
    gets a write fault delivered to the flavour's fault hook (used to model
    post-fork working-set writes). *)

val kernel_wait : ?proc:Uproc.t -> t -> Ufork_sim.Sync.Cond.t -> unit
(** Block on a condition from inside a syscall: under the legacy BKL,
    releases the lock while suspended and re-acquires it on resume;
    the sharded kernel holds no global lock across syscalls, so there
    is nothing to drop. Recharges the context switch (+ address-space
    switch on multi-AS kernels) on resume. When [proc] is given and a
    SIGKILL arrived while blocked, unwinds with {!Killed_signal}. *)

type syscall
(** A system call's static site: its span name and entry events. *)

val syscall : string -> syscall
(** The site of the named system call. Build each once, at module
    initialisation: entering through a shared site builds no string and
    allocates no event. *)

val with_syscall :
  t -> ?proc:Uproc.t -> ?bytes:int -> syscall -> (unit -> 'a) -> 'a
(** Charge syscall entry (per the configured mode), argument-validation
    work when full isolation is on, TOCTTOU buffer copies for [bytes]
    bytes when enabled, then run the body under the locking discipline:
    the whole body inside {!with_biglock} under
    {!Config.Big_kernel_lock}, unserialized (resource locks taken at
    each touch point) under {!Config.Sharded_locks}. [proc] enables
    kill delivery at the entry check. *)

exception Killed_signal
(** Unwinds a process that received SIGKILL; converted into the exit path
    by {!spawn_process}. *)

(** {1 Locking}

    Two disciplines, selected by {!Config.lock_mode}. Under the legacy
    big kernel lock, {!with_biglock} serializes whole syscall bodies
    and every per-resource helper is a no-op. Under sharded locking,
    {!with_biglock} is the no-op and each shared structure is guarded
    by its own named {!Ufork_sim.Sync.Rlock} — [lock.frame_pool],
    [lock.uproc_table], [lock.fd_tables], [lock.stats],
    [lock.pt_shard.NN] — all registered on the {!Ufork_util.Hb} bus so
    the race detector certifies the split and names the resource in
    its reports.

    Lock hierarchy (outermost first):
    uproc_table > fd_tables > pt_shard > frame_pool > stats. *)

val with_biglock : t -> (unit -> 'a) -> 'a
(** The legacy-BKL shim. The only legitimate call site is
    {!with_syscall} in this module; lint rule D9 bans new ones so the
    sharded kernel cannot quietly grow back a global serialization
    point. *)

val with_uproc_table : t -> (unit -> 'a) -> 'a
(** Pid allocation, the process table, the area index. *)

val with_fd_tables : t -> (unit -> 'a) -> 'a
(** Cross-process descriptor-table traffic (fork/spawn dup_all). *)

val with_stats : t -> (unit -> 'a) -> 'a
(** Shared gauges, e.g. the last-fork-latency gauge every fork
    writes. *)

val with_pt_shard : t -> Uproc.t -> (unit -> 'a) -> 'a
(** The page-table shard covering the μprocess's area (shards are
    indexed by area base, so one area maps to one shard). *)

val with_pt_shard_pair : t -> Uproc.t -> Uproc.t -> (unit -> 'a) -> 'a
(** Both processes' shards in ascending shard order (deadlock-free for
    concurrent forks); one acquisition when they collide. Fork's
    duplicate phase runs under this. *)

val chaos_disable_biglock : t -> unit
(** Chaos injection only: drop every kernel lock so syscalls and fault
    handlers run unserialized. The happens-before race detector must
    flag the shared writes that then go unordered. *)

val chaos_unshard_stats : t -> unit
(** Chaos injection only: disable just the stats shard of the sharded
    kernel, leaving every other lock intact — the minimal seeded bug
    for the lock split. Concurrent writers of a shared gauge then race
    and the detector must report exactly that location (R1). *)

val chaos_acquire_shards_descending : t -> unit
(** Chaos injection only: acquire one page-table shard pair in
    descending index order — the inversion of the ascending convention
    {!with_pt_shard_pair} enforces. Run on a rogue thread under the
    lock-order checker, the run must fail with exactly R2. No-op under
    the big lock or the lockless chaos mode (nothing to invert). *)

val chaos_stall_cycles : int64
(** How long {!chaos_stall_shard} sits on the shard. *)

val chaos_stall_shard : t -> unit
(** Chaos injection only: hold page-table shard 0 (the root process's
    shard) for {!chaos_stall_cycles} of simulated time while sleeping —
    a deliberate long stall that serializes every fork behind a
    non-running holder. Must be called from an engine thread. Run under
    the causal analyzer, the analysis must report this lock as the
    dominant critical-path edge (R3). No-op when the kernel is not
    sharded. *)

val chaos_leak_root : t -> bool
(** Chaos injection only: store the kernel's root capability into the
    first running μprocess's GOT slot 0, via the kernel's own unconfined
    store path. No architectural check can object — only the capflow
    taint invariant (R4) can notice root authority reachable from user
    pages. [false] while no process is running yet (the harness retries
    from a rogue boot thread until it lands). *)

val syscall_entry_cap : t -> Capability.t
(** The sealed kernel entry capability every μprocess holds: invocable
    (that is the system call), never dereferenceable or unsealable by
    user code (§4.2, §4.4). *)

(** {1 The application interface} *)

val build_api :
  t -> ?reloc:(Capability.t -> Capability.t) -> Uproc.t -> Api.t
(** The {!Api.t} for a process context. [reloc] is the fork-register
    translation (default identity). *)

(** {1 Accounting} *)

val total_frames_in_use : t -> int

val arena_span : t -> int
(** High-water mark of the shared virtual arena: how much contiguous
    address space μprocess areas have ever claimed (§6's fragmentation
    concern). Freed areas are recycled first-fit, so uniform fork/exit
    churn keeps this flat; mixed sizes can grow it. *)

val live_area_bytes : t -> int
(** Sum of the areas of live and zombie processes — the "useful" part of
    {!arena_span}; the difference is fragmentation. *)

val last_fork_latency : t -> int64
(** Cycles spent inside the most recent fork on this kernel (the
    {!Ufork_sim.Trace.last_fork_latency} gauge; 0 before the first
    fork). *)

(** {1 Introspection}

    Read-only views of the machine state for the
    {!Ufork_analysis.Checker} sanitizer sweep. Deterministic orders (by
    pid / sorted name) so violation reports are stable. *)

val fold_uprocs : t -> init:'a -> f:('a -> Uproc.t -> 'a) -> 'a
(** Every registered μprocess — running, zombie and reaped — in pid
    order. *)

val iter_uprocs : t -> (Uproc.t -> unit) -> unit

val areas : t -> (int * int * int) list
(** The [(base, bytes, pid)] areas of live and zombie processes (reaped
    areas leave this list and become reusable holes), sorted by base. *)

val named_segment_frames : t -> (string * Ufork_mem.Phys.frame array) list
(** The frames backing named shared-memory segments (["shm:<name>"]) and
    shared-library text (["lib:<name>"]). The kernel's table holds one
    reference per frame on top of any mappings. Sorted by name. *)

val pp_meter : Format.formatter -> t -> unit
