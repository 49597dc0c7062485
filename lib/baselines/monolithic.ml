module Addr = Ufork_mem.Addr
module Pte = Ufork_mem.Pte
module Page_table = Ufork_mem.Page_table
module Vas = Ufork_mem.Vas
module Costs = Ufork_sim.Costs
module Event = Ufork_sim.Event
module Kernel = Ufork_sas.Kernel
module Uproc = Ufork_sas.Uproc
module Config = Ufork_sas.Config
module Copy_engine = Ufork_core.Copy_engine
module Fork_spine = Ufork_core.Fork_spine
module Memops = Ufork_core.Memops
module System = Ufork_core.System

type t = System.t

(* Same virtual layout in a fresh address space: copy the vm_map, share
   every resident frame copy-on-write, and leave the child's pmap empty
   (read=false: each first touch takes a soft fault). Returns whether any
   live writable PTE was actually downgraded — only then is a TLB
   shootdown owed. *)
let duplicate k ~(parent : Uproc.t) ~(child : Uproc.t) =
  let vpn0 = Addr.vpn_of_addr parent.Uproc.area_base in
  let count = Addr.bytes_to_pages parent.Uproc.area_bytes in
  let shm = ref [] and cow = ref [] in
  Page_table.iter_range parent.Uproc.pt ~vpn:vpn0 ~count
    (fun v (ppte : Pte.t) ->
      if ppte.Pte.share = Pte.Shm_shared then shm := v :: !shm
      else cow := v :: !cow);
  (* MAP_SHARED segments keep pointing at the same frames. *)
  Memops.share_range k ~parent ~child ~delta_pages:0 ~downgrade:false
    ~child_pte:(fun (ppte : Pte.t) ->
      Pte.make ~read:true ~write:ppte.Pte.write ~exec:false
        ~share:Pte.Shm_shared ppte.Pte.frame)
    (List.rev !shm)
  |> ignore;
  Memops.share_range k ~parent ~child ~delta_pages:0
    ~child_pte:(fun (ppte : Pte.t) ->
      Pte.make ~read:false ~write:false ~exec:false ~share:Pte.Cow_shared
        ppte.Pte.frame)
    (List.rev !cow)

let do_fork k (parent : Uproc.t) child_main =
  let downgraded = ref false in
  let hooks =
    {
      Fork_spine.default with
      duplicate =
        (fun k ~parent ~child -> downgraded := duplicate k ~parent ~child);
      post_copy =
        (fun k ~parent ~child:_ ~pte_copies:_ ->
          (* The fold write-protected live parent PTEs; flush stale TLB
             entries before either side relies on the CoW downgrades. A
             walk that downgraded nothing (every entry already read-only
             or shared) owes no shootdown. *)
          if !downgraded then
            Kernel.emit ~proc:parent k
              (Event.Tlb_shootdown
                 (Ufork_sim.Engine.cores (Kernel.engine k) - 1));
          (* Parent immediately re-dirties its stack working set (CoW
             copies). *)
          let config = Kernel.config k in
          Kernel.touch_pages_for_write k parent
            (Fork_spine.stack_touch_vpns parent
               config.Config.parent_touch_pages));
      child_prologue =
        (fun k ~child ->
          let config = Kernel.config k in
          Kernel.touch_pages_for_write k child
            (Fork_spine.stack_touch_vpns child config.Config.child_touch_pages));
    }
  in
  Fork_spine.run k hooks parent child_main

let handle_fault k (u : Uproc.t) ~addr ~access =
  Kernel.with_span k ~name:"fault.service" @@ fun () ->
  let vpn = Addr.vpn_of_addr addr in
  match Page_table.lookup u.Uproc.pt ~vpn with
  | None -> Fork_spine.resolve_unmapped k u ~addr ~outside:"process image"
  | Some pte -> (
      let first_touch = not pte.Pte.read in
      match access with
      | Vas.Read | Vas.Cap_load | Vas.Exec ->
          if first_touch then begin
            (* pmap miss on a resident page: map it in, still CoW. *)
            Kernel.emit ~proc:u k Event.Soft_fault;
            pte.Pte.read <- true;
            if Uproc.region_of_addr u addr = Some "code" then
              pte.Pte.exec <- true
          end
          else
            raise
              (Fork_spine.Segfault
                 (Format.asprintf "pid %d: invalid %a at %#x" u.Uproc.pid
                    Vas.pp_access access addr))
      | Vas.Write | Vas.Cap_store -> (
          if first_touch then begin
            Kernel.emit ~proc:u k Event.Soft_fault;
            pte.Pte.read <- true
          end;
          match pte.Pte.share with
          | Pte.Cow_shared ->
              Kernel.emit ~proc:u k Event.Page_fault;
              Kernel.emit ~proc:u k Event.Cow_write_fault;
              Copy_engine.resolve_parent_cow k u ~vpn
          | Pte.Private ->
              if pte.Pte.write then () (* resolved by the soft fault above *)
              else
                raise
                  (Fork_spine.Segfault
                     (Printf.sprintf "pid %d: write to read-only %#x"
                        u.Uproc.pid addr))
          | Pte.Shm_shared ->
              (* Shared segments are write-through; nothing to resolve. *)
              ()
          | Pte.Coa_shared | Pte.Copa_shared ->
              (* Never installed by this kernel. *)
              assert false))

let boot ?(cores = 4) ?(config = Config.cheribsd_default)
    ?(costs = Costs.cheribsd) () =
  let sys =
    System.make ~cores ~config ~costs ~multi_address_space:true ()
  in
  let kernel = System.kernel sys in
  Kernel.set_fork_hook kernel (fun parent child_main ->
      do_fork kernel parent child_main);
  Kernel.set_fault_hook kernel (fun u ~addr ~access ->
      handle_fault kernel u ~addr ~access);
  sys

let system t = t
let kernel = System.kernel
let engine = System.engine
let start = System.start
let run = System.run
let last_fork_latency = System.last_fork_latency
