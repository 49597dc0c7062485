module Addr = Ufork_mem.Addr
module Page = Ufork_mem.Page
module Phys = Ufork_mem.Phys
module Pte = Ufork_mem.Pte
module Page_table = Ufork_mem.Page_table
module Event = Ufork_sim.Event
module Kernel = Ufork_sas.Kernel
module Uproc = Ufork_sas.Uproc

let owner_area k addr = Kernel.find_area_of_addr k addr

let natural_perms (u : Uproc.t) ~addr ~read ~write ~exec =
  read := true;
  exec := false;
  write := true;
  match Uproc.region_of_addr u addr with
  | Some "code" ->
      write := false;
      exec := true
  | Some _ | None -> ()

let restore_perms (u : Uproc.t) ~vpn (pte : Pte.t) =
  let addr = Addr.addr_of_vpn vpn in
  let read = ref true and write = ref true and exec = ref false in
  natural_perms u ~addr ~read ~write ~exec;
  pte.Pte.read <- !read;
  pte.Pte.write <- !write;
  pte.Pte.exec <- !exec;
  pte.Pte.cap_load_fault <- false;
  pte.Pte.share <- Pte.Private

(* The one physical page duplication in the tree: bytes plus capability
   granules, tags preserved. Everything that copies a page — eager fork
   copies, CoW/CoA/CoPA resolutions, VM cloning — comes through here. *)
let copy_page_contents ~src ~dst = Page.copy_into ~src ~dst

let duplicate_frame k u frame =
  let fresh = Kernel.fresh_frame k u in
  copy_page_contents ~src:(Phys.page frame) ~dst:(Phys.page fresh);
  fresh

let share_range k ~(parent : Uproc.t) ~(child : Uproc.t) ~delta_pages
    ?(downgrade = true) ?page_event ~child_pte pvpns =
  match pvpns with
  | [] -> false
  | _ ->
      Kernel.with_span k ~name:"pte_copy" (fun () ->
          Kernel.emit ~proc:child k (Event.Pte_copy (List.length pvpns)));
      List.fold_left
        (fun downgraded pvpn ->
          let ppte = Page_table.lookup_exn parent.Uproc.pt ~vpn:pvpn in
          let downgraded =
            if downgrade && ppte.Pte.write then begin
              ppte.Pte.write <- false;
              ppte.Pte.share <- Pte.Cow_shared;
              true
            end
            else downgraded
          in
          (match page_event with
          | Some e -> Kernel.emit ~proc:child k e
          | None -> ());
          Page_table.map_shared child.Uproc.pt ~vpn:(pvpn + delta_pages)
            (child_pte ppte);
          downgraded)
        false pvpns

(* One eager page copy: the child's fresh frame takes the parent page's
   bytes and tags and is mapped at [cvpn] with the parent's
   permissions. *)
let copy_page (child : Uproc.t) ~cvpn (ppte : Pte.t) fresh =
  copy_page_contents ~src:(Phys.page ppte.Pte.frame) ~dst:(Phys.page fresh);
  let cpte =
    Pte.private_page ~read:ppte.Pte.read ~write:ppte.Pte.write
      ~exec:ppte.Pte.exec fresh
  in
  Page_table.map child.Uproc.pt ~vpn:cvpn cpte;
  cpte

let copy_range k ~(parent : Uproc.t) ~(child : Uproc.t) ~delta_pages pvpns =
  match pvpns with
  | [] -> ()
  | _ ->
      let n = List.length pvpns in
      Kernel.with_span k ~name:"pte_copy" (fun () ->
          Kernel.emit ~proc:child k (Event.Pte_copy n));
      let frames =
        Kernel.with_span k ~name:"page_copy" (fun () ->
            Kernel.emit ~proc:child k (Event.Page_copy_eager n);
            Kernel.fresh_frames k child n)
      in
      let scanned = ref 0 and relocated = ref 0 in
      List.iter2
        (fun pvpn fresh ->
          let cvpn = pvpn + delta_pages in
          let cpte =
            copy_page child ~cvpn
              (Page_table.lookup_exn parent.Uproc.pt ~vpn:pvpn)
              fresh
          in
          let outcome =
            Relocate.relocate_page ~owner_area:(owner_area k)
              ~child_base:child.Uproc.area_base
              ~child_bytes:child.Uproc.area_bytes (Phys.page fresh)
          in
          scanned := !scanned + outcome.Relocate.granules_scanned;
          relocated := !relocated + outcome.Relocate.relocated;
          restore_perms child ~vpn:cvpn cpte)
        pvpns frames;
      Kernel.with_span k ~name:"reloc.scan" (fun () ->
          Kernel.emit ~proc:child k (Event.Granule_scan !scanned);
          Kernel.emit ~proc:child k (Event.Cap_relocate !relocated))

let copy_all k ~(parent : Uproc.t) ~(child : Uproc.t) =
  let n = Page_table.mapped_count parent.Uproc.pt in
  if n > 0 then begin
    Kernel.with_span k ~name:"pte_copy" (fun () ->
        Kernel.emit ~proc:child k (Event.Pte_copy n));
    (* Each frame is taken as the walk reaches its page: the clone
       builds no list of vpns and none of frames. *)
    Kernel.with_span k ~name:"page_copy" (fun () ->
        Kernel.emit ~proc:child k (Event.Page_copy_eager n);
        Kernel.with_fresh_frames k child n (fun take ->
            Page_table.iter parent.Uproc.pt (fun vpn ppte ->
                ignore (copy_page child ~cvpn:vpn ppte (take ())))))
  end

let map_zero_range k u ~base ~bytes ?read ?write ?exec () =
  Kernel.map_zero_pages k u ~base ~bytes ?read ?write ?exec ()
