module Costs = Ufork_sim.Costs
module Event = Ufork_sim.Event
module Kernel = Ufork_sas.Kernel
module Uproc = Ufork_sas.Uproc
module Config = Ufork_sas.Config
module Image = Ufork_sas.Image
module Page_table = Ufork_mem.Page_table
module Vas = Ufork_mem.Vas
module Addr = Ufork_mem.Addr
module Fork_spine = Ufork_core.Fork_spine
module Memops = Ufork_core.Memops
module System = Ufork_core.System

type t = System.t

(* The Unikraft kernel linked into every VM image: ~1.2 MiB text+rodata and
   ~0.2 MiB data, duplicated wholesale by a domain clone. *)
let unikernel_image (img : Image.t) =
  {
    img with
    Image.name = img.Image.name ^ "+unikraft";
    code_bytes = img.Image.code_bytes + (1228 * 1024);
    data_bytes = img.Image.data_bytes + (200 * 1024);
  }

let do_fork k (parent : Uproc.t) child_main =
  let hooks =
    {
      Fork_spine.default with
      pre_create =
        (fun k ~parent ->
          (* Creating the new domain dominates: hypercalls, event channels,
             grant tables, device re-attachment. *)
          Kernel.emit ~proc:parent k Event.Domain_create);
      duplicate =
        (fun k ~parent ~child ->
          (* The entire VM image — unikernel included — is copied
             eagerly, verbatim: same permissions, no relocation (each
             clone is its own address space). *)
          Memops.copy_all k ~parent ~child);
    }
  in
  Fork_spine.run k hooks parent child_main

let handle_fault k (u : Uproc.t) ~addr ~access =
  Kernel.with_span k ~name:"fault.service" @@ fun () ->
  let vpn = Addr.vpn_of_addr addr in
  match Page_table.lookup u.Uproc.pt ~vpn with
  | None -> (
      match Uproc.region_of_addr u addr with
      | Some ("heap" | "meta") -> Fork_spine.demand_zero k u ~addr
      | Some _ | None ->
          raise
            (Fork_spine.Segfault
               (Format.asprintf "pid %d: invalid %a at %#x" u.Uproc.pid
                  Vas.pp_access access addr)))
  | Some _ ->
      raise
        (Fork_spine.Segfault
           (Format.asprintf "pid %d: invalid %a at %#x" u.Uproc.pid
              Vas.pp_access access addr))

let boot ?(cores = 4) ?(config = Config.nephele_default)
    ?(costs = Costs.nephele) () =
  let sys =
    System.make ~prepare_image:unikernel_image ~cores ~config ~costs
      ~multi_address_space:true ()
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
