module Capability = Ufork_cheri.Capability
module Addr = Ufork_mem.Addr
module Engine = Ufork_sim.Engine
module Meter = Ufork_sim.Meter
module Event = Ufork_sim.Event
module Trace = Ufork_sim.Trace
module Kernel = Ufork_sas.Kernel
module Uproc = Ufork_sas.Uproc
module Fdesc = Ufork_sas.Fdesc
module Tinyalloc = Ufork_sas.Tinyalloc

exception Segfault of string

type hooks = {
  pre_create : Kernel.t -> parent:Uproc.t -> unit;
  duplicate : Kernel.t -> parent:Uproc.t -> child:Uproc.t -> unit;
  post_copy :
    Kernel.t -> parent:Uproc.t -> child:Uproc.t -> pte_copies:int -> unit;
  child_prologue : Kernel.t -> child:Uproc.t -> unit;
  reloc : (Kernel.t -> child:Uproc.t -> Capability.t -> Capability.t) option;
}

let default =
  {
    pre_create = (fun _ ~parent:_ -> ());
    duplicate = (fun _ ~parent:_ ~child:_ -> ());
    post_copy = (fun _ ~parent:_ ~child:_ ~pte_copies:_ -> ());
    child_prologue = (fun _ ~child:_ -> ());
    reloc = None;
  }

(* The write working set a μprocess touches immediately around the fork:
   its top-of-stack pages. *)
let stack_touch_vpns (u : Uproc.t) n =
  let r = u.Uproc.regions in
  let vpn0 = Addr.vpn_of_addr r.Uproc.stack_base in
  let pages = Addr.bytes_to_pages r.Uproc.stack_bytes in
  List.init (min n pages) (fun i -> vpn0 + pages - 1 - i)

let run k hooks (parent : Uproc.t) child_main =
  let meter = Kernel.meter k in
  let span name f = Kernel.with_span k ~name f in
  (* The "fork" span nests inside "syscall.fork" on the parent's stack;
     each spine step gets its own sub-span so the profiler decomposes a
     fork the way the paper does (fixed trap costs vs. PTE copy vs.
     relocation vs. spawn). The "fork" span's instance total feeds the
     fork-latency histogram. *)
  span "fork" (fun () ->
      let t0 = Engine.now (Kernel.engine k) in
      span "fork.fixed" (fun () ->
          Kernel.emit ~proc:parent k Event.Fork_fixed;
          hooks.pre_create k ~parent);
      let fds =
        span "fork.fd_dup" (fun () ->
            Kernel.with_fd_tables k (fun () ->
                Fdesc.Fdtable.dup_all parent.Uproc.fds))
      in
      let child =
        span "fork.uproc_create" (fun () ->
            Kernel.create_uproc k ~parent ~fds ~image:parent.Uproc.image ())
      in
      child.Uproc.forked <- true;
      let pte_before = Meter.get meter Event.pte_copy_key in
      (* The bulk PTE walk writes both page-table ranges: hold the two
         area shards (ascending order) for the duration so concurrent
         forks into a colliding shard serialize — and so the detector
         sees the lock edge that orders them. *)
      span "fork.duplicate" (fun () ->
          Kernel.with_pt_shard_pair k parent child (fun () ->
              hooks.duplicate k ~parent ~child));
      let pte_copies = Meter.get meter Event.pte_copy_key - pte_before in
      (* The allocator mirror is cloned at a fixed point of the spine: the
         clone emits no events, so its position cannot perturb the stream. *)
      span "fork.alloc_clone" (fun () ->
          child.Uproc.allocator <-
            Tinyalloc.clone parent.Uproc.allocator
              ~delta:(Uproc.delta ~parent ~child));
      span "fork.post_copy" (fun () ->
          hooks.post_copy k ~parent ~child ~pte_copies);
      span "fork.spawn" (fun () ->
          Kernel.emit ~proc:parent k Event.Thread_create;
          let reloc = Option.map (fun f -> f k ~child) hooks.reloc in
          let child_body api =
            (* Runs on the child's own thread: its span stack starts
               empty, so the prologue shows up as a root span there. *)
            Kernel.with_span k ~name:"fork.child_prologue" (fun () ->
                hooks.child_prologue k ~child);
            child_main api
          in
          Kernel.spawn_process k ?reloc child child_body);
      let dt = Int64.sub (Engine.now (Kernel.engine k)) t0 in
      (* The gauge is one shared scalar every forker writes: under the
         sharded kernel the stats lock is what orders concurrent forks'
         writes (the BKL used to). The chaos control unshards exactly
         this lock to prove the detector notices. *)
      Kernel.with_stats k (fun () ->
          Trace.gauge (Kernel.trace k) Trace.last_fork_latency_key
            (Int64.to_int dt));
      child.Uproc.pid)

let demand_zero k (u : Uproc.t) ~addr =
  Kernel.emit ~proc:u k Event.Demand_zero;
  Memops.map_zero_range k u
    ~base:(Addr.addr_of_vpn (Addr.vpn_of_addr addr))
    ~bytes:Addr.page_size ()

let resolve_unmapped k (u : Uproc.t) ~addr ~outside =
  match Uproc.region_of_addr u addr with
  | Some ("heap" | "meta") -> demand_zero k u ~addr
  | Some r ->
      raise
        (Segfault
           (Printf.sprintf "pid %d: %#x (%s) not mapped" u.Uproc.pid addr r))
  | None ->
      raise
        (Segfault
           (Printf.sprintf "pid %d: %#x outside %s" u.Uproc.pid addr outside))
