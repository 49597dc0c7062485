module Capability = Ufork_cheri.Capability
module Addr = Ufork_mem.Addr
module Pte = Ufork_mem.Pte
module Page_table = Ufork_mem.Page_table
module Vas = Ufork_mem.Vas
module Event = Ufork_sim.Event
module Kernel = Ufork_sas.Kernel
module Uproc = Ufork_sas.Uproc
module Config = Ufork_sas.Config
module Tinyalloc = Ufork_sas.Tinyalloc

exception Segfault = Fork_spine.Segfault

let last_fork_latency = Kernel.last_fork_latency

(* Approximate size of the capability register file relocated at fork
   (§3.5 step 2: "any absolute memory references contained in registers are
   relocated"). *)
let register_file_caps = 31

(* Read working set for CoA's in-call parent faults: globals. *)
let data_touch_vpns (u : Uproc.t) n =
  let r = u.Uproc.regions in
  let vpn0 = Addr.vpn_of_addr r.Uproc.data_base in
  let pages = Addr.bytes_to_pages r.Uproc.data_bytes in
  List.init (min n pages) (fun i -> vpn0 + i)

let regions (u : Uproc.t) =
  let r = u.Uproc.regions in
  [
    ("got", r.Uproc.got_base, r.Uproc.got_bytes);
    ("code", r.Uproc.code_base, r.Uproc.code_bytes);
    ("data", r.Uproc.data_base, r.Uproc.data_bytes);
    ("stack", r.Uproc.stack_base, r.Uproc.stack_bytes);
    ("meta", r.Uproc.meta_base, r.Uproc.meta_bytes);
    ("heap", r.Uproc.heap_base, r.Uproc.heap_bytes);
  ]

(* 1. Parent state duplication: walk the parent's mapped pages region by
   region, partition each region's pages by disposition, and hand each
   partition to one batched {!Memops} range operation. GOT and used
   allocator metadata are proactively copied + relocated; deliberate
   shared memory stays shared (§3.7); everything else follows the
   strategy. *)
let duplicate k ~strategy ~proactive ~(parent : Uproc.t) ~(child : Uproc.t) =
  let delta_pages = Uproc.delta ~parent ~child / Addr.page_size in
  let meta_used_bytes =
    Tinyalloc.high_water_meta_granules parent.Uproc.allocator
    * Addr.granule_size
  in
  let meta_used_limit =
    parent.Uproc.regions.Uproc.meta_base + meta_used_bytes
  in
  List.iter
    (fun (name, base, bytes) ->
      let vpn = Addr.vpn_of_addr base in
      let count = Addr.bytes_to_pages bytes in
      let shm = ref [] and eager = ref [] and lazily = ref [] in
      Page_table.iter_range parent.Uproc.pt ~vpn ~count
        (fun v (pte : Pte.t) ->
          if pte.Pte.share = Pte.Shm_shared then shm := v :: !shm
          else
            let proactive_page =
              proactive
              &&
              match name with
              | "got" -> true
              | "meta" -> Addr.addr_of_vpn v < meta_used_limit
              | _ -> false
            in
            if proactive_page || strategy = Strategy.Full_copy then
              eager := v :: !eager
            else lazily := v :: !lazily);
      Memops.share_range k ~parent ~child ~delta_pages ~downgrade:false
        ~page_event:Event.Shm_share
        ~child_pte:(fun (ppte : Pte.t) ->
          Pte.make ~read:ppte.Pte.read ~write:ppte.Pte.write
            ~exec:ppte.Pte.exec ~share:Pte.Shm_shared ppte.Pte.frame)
        (List.rev !shm)
      |> ignore;
      Memops.copy_range k ~parent ~child ~delta_pages (List.rev !eager);
      match strategy with
      | Strategy.Full_copy -> assert (!lazily = [])
      | Strategy.Coa | Strategy.Copa ->
          (* Parent side drops to copy-on-write (writes fault; reads —
             and, under CoPA, capability loads — proceed: its own
             capabilities are valid). *)
          Memops.share_range k ~parent ~child ~delta_pages
            ~child_pte:(fun (ppte : Pte.t) ->
              match strategy with
              | Strategy.Coa ->
                  Pte.make ~read:false ~write:false ~exec:false
                    ~share:Pte.Coa_shared ppte.Pte.frame
              | Strategy.Copa ->
                  Pte.make ~read:true ~write:false ~exec:ppte.Pte.exec
                    ~cap_load_fault:true ~share:Pte.Copa_shared
                    ppte.Pte.frame
              | Strategy.Full_copy -> assert false)
            (List.rev !lazily)
          |> ignore)
    (regions parent);
  (* Under the full-copy strategy the entire static heap reservation is
     transferred, materializing even never-touched pages (§5.2: "the
     memory transferred by a full copy is correspondingly large"). *)
  match strategy with
  | Strategy.Full_copy ->
      let r = child.Uproc.regions in
      let vpn0 = Addr.vpn_of_addr r.Uproc.heap_base in
      let pages = Addr.bytes_to_pages r.Uproc.heap_bytes in
      let missing = ref [] in
      for v = vpn0 + pages - 1 downto vpn0 do
        if not (Page_table.is_mapped child.Uproc.pt ~vpn:v) then
          missing := (v - delta_pages) :: !missing
      done;
      if !missing <> [] then begin
        (* Also materialize the parent side: the static heap exists in
           full in a statically-allocated-heap build. The walk above
           copied every mapped parent page, so the child's heap holes are
           exactly the parent's — one batched zero-fill covers them. *)
        let pr = parent.Uproc.regions in
        Memops.map_zero_range k parent ~base:pr.Uproc.heap_base
          ~bytes:pr.Uproc.heap_bytes ();
        Memops.copy_range k ~parent ~child ~delta_pages !missing
      end
  | Strategy.Coa | Strategy.Copa -> ()

(* 2. Post-copy phase: flush downgraded mappings, revalidate, relocate
   the register file, and re-touch the parent's working set. *)
let post_copy k ~strategy ~(parent : Uproc.t) ~pte_copies =
  let config = Kernel.config k in
  (* The sharing strategies downgraded live parent PTEs; stale TLB entries
     on every core must be invalidated before anyone relies on the new
     permissions (the protocol the trace linter checks). Full copy never
     touches the parent's permissions, so there is nothing to flush. *)
  (match strategy with
  | Strategy.Coa | Strategy.Copa ->
      (* One IPI per remote core that may cache a stale entry: the
         cross-core window grows with the machine, which is where the
         fork-scaling curve eventually bends. *)
      Kernel.emit ~proc:parent k
        (Event.Tlb_shootdown (Ufork_sim.Engine.cores (Kernel.engine k) - 1))
  | Strategy.Full_copy -> ());
  (* TOCTTOU hardening revalidates the duplicated mappings against the
     (copied) fork arguments, adding per-entry work (§5.1: "The cost of
     TOCTTOU protection is relatively minor (2.6% at 100 MB)"). *)
  if config.Config.toctou then
    Kernel.emit ~proc:parent k (Event.Toctou_revalidate pte_copies);
  Kernel.emit ~proc:parent k (Event.Cap_relocate register_file_caps);
  (* The parent's return path re-touches its working set at once. Writes
     fault under every lazy strategy; under CoA even the reads of globals
     fault, which is why CoA fork latency is slightly worse (§5.2). *)
  List.iter
    (fun vpn -> Copy_engine.touch_write k parent ~vpn)
    (Fork_spine.stack_touch_vpns parent config.Config.parent_touch_pages);
  match strategy with
  | Strategy.Coa ->
      (* CoA makes even the parent's reads fault: globals and the hot end
         of the heap re-fault on the return path. *)
      List.iter
        (fun vpn -> Copy_engine.touch_write k parent ~vpn)
        (data_touch_vpns parent (4 * config.Config.parent_touch_pages))
  | Strategy.Copa | Strategy.Full_copy -> ()

let hooks ~strategy ~proactive =
  {
    Fork_spine.default with
    duplicate =
      (fun k ~parent ~child -> duplicate k ~strategy ~proactive ~parent ~child);
    post_copy =
      (fun k ~parent ~child:_ ~pte_copies ->
        post_copy k ~strategy ~parent ~pte_copies);
    child_prologue =
      (fun k ~child ->
        (* The child starts by writing its own stack frames. *)
        let config = Kernel.config k in
        List.iter
          (fun vpn -> Copy_engine.touch_write k child ~vpn)
          (Fork_spine.stack_touch_vpns child config.Config.child_touch_pages));
    reloc =
      Some
        (fun k ~child cap ->
          (* The child's capability registers are displaced copies of the
             parent's. *)
          Relocate.relocate_cap
            ~owner_area:(Memops.owner_area k)
            ~child_base:child.Uproc.area_base
            ~child_bytes:child.Uproc.area_bytes cap);
  }

let do_fork k ~strategy ~proactive (parent : Uproc.t) child_main =
  Fork_spine.run k (hooks ~strategy ~proactive) parent child_main

(* Fault resolution: CoW/CoA/CoPA plus demand-zero heap. *)
let handle_fault k (u : Uproc.t) ~addr ~access =
  Kernel.with_span k ~name:"fault.service" @@ fun () ->
  let vpn = Addr.vpn_of_addr addr in
  match Page_table.lookup u.Uproc.pt ~vpn with
  | None -> Fork_spine.resolve_unmapped k u ~addr ~outside:"μprocess area"
  | Some pte -> (
      Kernel.emit ~proc:u k Event.Page_fault;
      match (pte.Pte.share, access) with
      | Pte.Copa_shared, (Vas.Write | Vas.Cap_store | Vas.Cap_load) ->
          Kernel.emit ~proc:u k
            (match access with
            | Vas.Cap_load -> Event.Copa_cap_load_fault
            | _ -> Event.Copa_write_fault);
          Copy_engine.resolve_child_copy k u ~vpn
      | Pte.Coa_shared, _ ->
          Kernel.emit ~proc:u k Event.Coa_access_fault;
          Copy_engine.resolve_child_copy k u ~vpn
      | Pte.Cow_shared, (Vas.Write | Vas.Cap_store) ->
          Kernel.emit ~proc:u k Event.Cow_write_fault;
          Copy_engine.resolve_parent_cow k u ~vpn
      | (Pte.Private | Pte.Cow_shared | Pte.Copa_shared | Pte.Shm_shared), _
        ->
          raise
            (Segfault
               (Format.asprintf "pid %d: invalid %a at %#x" u.Uproc.pid
                  Vas.pp_access access addr)))

let install ?(proactive = true) k ~strategy =
  if Kernel.multi_address_space k then
    invalid_arg "Fork.install: μFork requires a single address space";
  Kernel.set_fork_hook k (fun parent child_main ->
      do_fork k ~strategy ~proactive parent child_main);
  Kernel.set_fault_hook k (fun u ~addr ~access ->
      handle_fault k u ~addr ~access)
