module Capability = Ufork_cheri.Capability
module Addr = Ufork_mem.Addr
module Phys = Ufork_mem.Phys
module Pte = Ufork_mem.Pte
module Page_table = Ufork_mem.Page_table
module Event = Ufork_sim.Event
module Kernel = Ufork_sas.Kernel
module Uproc = Ufork_sas.Uproc

let owner_area = Memops.owner_area

(* Relocate the page now backing [vpn] for the child and make it private. *)
let relocate_and_privatize k (child : Uproc.t) ~vpn (pte : Pte.t)
    ~already_private =
  let page = Phys.page pte.Pte.frame in
  let outcome =
    Relocate.relocate_page ~owner_area:(owner_area k)
      ~child_base:child.Uproc.area_base ~child_bytes:child.Uproc.area_bytes
      page
  in
  Kernel.with_span k ~name:"reloc.scan" (fun () ->
      Kernel.emit ~proc:child k
        (Event.Granule_scan outcome.Relocate.granules_scanned);
      Kernel.emit ~proc:child k (Event.Cap_relocate outcome.Relocate.relocated));
  if already_private then
    (* The frame was claimed in place: it becomes child-private memory. *)
    Kernel.account_private k child ~bytes:Addr.page_size;
  Memops.restore_perms child ~vpn pte

let resolve_child_copy k (child : Uproc.t) ~vpn =
  let pte = Page_table.lookup_exn child.Uproc.pt ~vpn in
  if Phys.refcount pte.Pte.frame = 1 then begin
    (* Nobody else references the frame: claim it in place, skip the copy. *)
    Kernel.emit ~proc:child k Event.Claim_in_place;
    relocate_and_privatize k child ~vpn pte ~already_private:true
  end
  else begin
    let fresh =
      Kernel.with_span k ~name:"page_copy" (fun () ->
          Kernel.emit ~proc:child k Event.Page_copy_child;
          Memops.duplicate_frame k child pte.Pte.frame)
    in
    Page_table.replace_frame child.Uproc.pt ~vpn fresh;
    relocate_and_privatize k child ~vpn pte ~already_private:false
  end

let resolve_parent_cow k (u : Uproc.t) ~vpn =
  let pte = Page_table.lookup_exn u.Uproc.pt ~vpn in
  if Phys.refcount pte.Pte.frame = 1 then begin
    Kernel.emit ~proc:u k Event.Cow_claim_in_place;
    Memops.restore_perms u ~vpn pte
  end
  else begin
    let fresh =
      Kernel.with_span k ~name:"page_copy" (fun () ->
          Kernel.emit ~proc:u k Event.Page_copy_cow;
          Memops.duplicate_frame k u pte.Pte.frame)
    in
    Page_table.replace_frame u.Uproc.pt ~vpn fresh;
    Memops.restore_perms u ~vpn pte
  end

let touch_write k (u : Uproc.t) ~vpn =
  match Page_table.lookup u.Uproc.pt ~vpn with
  | None -> ()
  | Some pte -> (
      if not pte.Pte.write then
        match pte.Pte.share with
        | Pte.Copa_shared | Pte.Coa_shared ->
            Kernel.emit ~proc:u k Event.Page_fault;
            resolve_child_copy k u ~vpn
        | Pte.Cow_shared ->
            Kernel.emit ~proc:u k Event.Page_fault;
            resolve_parent_cow k u ~vpn
        | Pte.Shm_shared | Pte.Private -> ())
