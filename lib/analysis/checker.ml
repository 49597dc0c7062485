module Addr = Ufork_mem.Addr
module Page = Ufork_mem.Page
module Phys = Ufork_mem.Phys
module Pte = Ufork_mem.Pte
module Page_table = Ufork_mem.Page_table
module Capability = Ufork_cheri.Capability
module Kernel = Ufork_sas.Kernel
module Uproc = Ufork_sas.Uproc
module Config = Ufork_sas.Config
module Trace = Ufork_sim.Trace

open Invariant

(* The census lives on the frames ({!Phys.census}): one int each, the
   number of mappings aliasing the frame above two flag bits. A sweep
   zeroes every frame's tally before counting, so nothing carries over
   from the last one, and the census costs no table and no allocation
   per frame or per mapping. *)
let named_bit = 1 (* a kernel named-segment table references the frame *)
let shared_bit = 2 (* some mapping of the frame is not Private *)
let one_mapping = 4

let mappings f = Phys.census f lsr 2
let is_named f = Phys.census f land named_bit <> 0
let all_private f = Phys.census f land shared_bit = 0

let sweep ?(capflow = false) k =
  let phys = Kernel.phys k in
  let multi_as = Kernel.multi_address_space k in
  let isolation_on =
    (Kernel.config k).Config.isolation <> Config.No_isolation
  in
  (* Report order: frames (S1, S2, then S9), mappings by table and
     ascending vpn, aliases (S7). One walk both counts and checks the
     mappings, and the frame pass that follows needs its counts, so each
     part collects in its own list. Subjects are formatted only once a
     violation is recorded: the sweep checks every frame, mapping and
     tagged granule, and almost all of them pass. *)
  let frame_vs = ref [] and mapping_vs = ref [] and alias_vs = ref [] in
  let record into invariant subject detail =
    into := { invariant; subject; detail } :: !into
  in
  let frame_subject f = Printf.sprintf "frame %d" (Phys.id f) in
  let mapping_subject owner_area vpn =
    match owner_area with
    | Some (_, _, pid) -> Printf.sprintf "pid %d vpn %#x" pid vpn
    | None -> Printf.sprintf "vpn %#x" vpn
  in
  let granule_subject owner_area vpn g =
    Printf.sprintf "%s granule %d" (mapping_subject owner_area vpn) g
  in
  (* The distinct page tables that map anything: the one shared table in
     the SASOS, one per process (live, zombie or reaped) on the multi-AS
     baselines. *)
  let tables =
    Kernel.fold_uprocs k ~init:[] ~f:(fun acc (u : Uproc.t) ->
        if
          Page_table.mapped_count u.Uproc.pt = 0
          || List.exists (fun (pt, _) -> pt == u.Uproc.pt) acc
        then acc
        else (u.Uproc.pt, u) :: acc)
    |> List.rev
  in
  (* Census, first part: which frames the kernel's named-segment tables
     reference (one kernel reference each, on top of any mappings). The
     walk below adds the mappings. *)
  Phys.iter_frames phys (fun f -> Phys.set_census f 0);
  let named = Kernel.named_segment_frames k in
  List.iter
    (fun (_, frames) ->
      Array.iter (fun f -> Phys.set_census f (Phys.census f lor named_bit))
        frames)
    named;
  (* The segment naming a frame, the last one listing it; read only to
     word an S6 report. *)
  let segment_of f =
    List.fold_left
      (fun acc (nm, frames) ->
        if Array.exists (fun g -> g == f) frames then nm else acc)
      "" named
  in
  (* Each area with its option box, built once: the owner lookup runs
     per mapping. *)
  let areas =
    List.map (fun ((b, s, _) as area) -> (b, s, Some area)) (Kernel.areas k)
  in
  let rec area_of_addr addr = function
    | [] -> None
    | (b, s, area) :: rest ->
        if addr >= b && addr < b + s then area else area_of_addr addr rest
  in
  let area_holding_cap cap =
    List.find_map
      (fun (b, s, area) ->
        if Capability.in_range cap ~lo:b ~hi:(b + s) then area else None)
      areas
  in
  (* For the S10/S11 direction split. *)
  let is_child_of ~parent pid =
    match Kernel.find_uproc k pid with
    | Some { Uproc.parent_pid = Some p; _ } -> p = parent
    | Some _ | None -> false
  in
  let add = record mapping_vs in

  (* {2 Census and per-mapping checks: S3, S4, S5, S6, S8, S10, S11} *)
  List.iter
    (fun (pt, (owner : Uproc.t)) ->
      (* On multi-AS the table's process owns what lies in its area,
         unless it is reaped. *)
      let table_area =
        if multi_as && owner.Uproc.state <> Uproc.Reaped then
          Some
            (owner.Uproc.area_base, owner.Uproc.area_bytes, owner.Uproc.pid)
        else None
      in
      Page_table.iter pt (fun vpn (pte : Pte.t) ->
          let frame = pte.Pte.frame in
          let census = Phys.census frame in
          let shared =
            match pte.Pte.share with Pte.Private -> 0 | _ -> shared_bit
          in
          Phys.set_census frame ((census + one_mapping) lor shared);
          let is_named = census land named_bit <> 0 in
          let addr = Addr.addr_of_vpn vpn in
          let fid = Phys.id frame in
          (* Owner attribution: the area containing the address in the
             single address space; the table's process on multi-AS. *)
          let owner_area =
            if multi_as then
              if
                addr >= owner.Uproc.area_base
                && addr < owner.Uproc.area_base + owner.Uproc.area_bytes
              then table_area
              else None
            else area_of_addr addr areas
          in
          (* S8: no mapping outside a live-or-zombie process area. *)
          if Option.is_none owner_area then
            add Orphan_mapping (mapping_subject owner_area vpn)
              (if multi_as && owner.Uproc.state = Uproc.Reaped then
                 Printf.sprintf "mapping of frame %d survives pid %d's reap"
                   fid owner.Uproc.pid
               else
                 Printf.sprintf
                   "frame %d mapped at %#x, owned by no live or zombie area"
                   fid addr);
          (* S4/S5: share-mode / permission coherence. *)
          (match pte.Pte.share with
          | Pte.Cow_shared when pte.Pte.write ->
              add Cow_writable (mapping_subject owner_area vpn)
                (Printf.sprintf "CoW-shared frame %d mapped writable" fid)
          | Pte.Copa_shared
            when (not pte.Pte.cap_load_fault) || pte.Pte.write ->
              add Share_perms (mapping_subject owner_area vpn)
                (Printf.sprintf
                   "CoPA-shared frame %d: cap_load_fault=%b write=%b \
                    (want trap on cap loads, never write-through)"
                   fid pte.Pte.cap_load_fault pte.Pte.write)
          | Pte.Coa_shared when pte.Pte.read || pte.Pte.write ->
              add Share_perms (mapping_subject owner_area vpn)
                (Printf.sprintf
                   "CoA-shared frame %d: read=%b write=%b (every access \
                    must fault)"
                   fid pte.Pte.read pte.Pte.write)
          | _ -> ());
          (* S6: Shm mappings <-> named-segment frames. *)
          (match pte.Pte.share with
          | Pte.Shm_shared when not is_named ->
              add Shm_coherence (mapping_subject owner_area vpn)
                (Printf.sprintf
                   "Shm_shared mapping of anonymous frame %d (not in any \
                    named segment)"
                   fid)
          | (Pte.Private | Pte.Cow_shared | Pte.Coa_shared | Pte.Copa_shared)
            when is_named ->
              add Shm_coherence (mapping_subject owner_area vpn)
                (Printf.sprintf
                   "named-segment frame %d (%s) mapped %s — deliberate \
                    sharing must never be privately copied"
                   fid (segment_of frame)
                   (Format.asprintf "%a" Pte.pp_share pte.Pte.share))
          | _ -> ());
          (* S3/S10: stored capabilities. Only granules a process could
             actually load a capability from: readable, not behind the
             CoPA cap-load trap (those are pending relocation), and not
             deliberate shared memory (windows alias across areas by
             design). *)
          let page = Phys.page frame in
          if
            isolation_on && pte.Pte.read
            && (not pte.Pte.cap_load_fault)
            && pte.Pte.share <> Pte.Shm_shared
            && Page.tagged_count page > 0
          then
            match owner_area with
            | None -> () (* reported as S8 above *)
            | Some (base, bytes, opid) ->
                Page.iter_caps page (fun g cap ->
                    if not (Capability.is_sealed cap) then
                      (* R4 (capflow armed): the provenance stamp must
                         match the holding area — the taint diagnosis
                         subsumes the untyped wild-capability report. *)
                      if capflow && Capability.prov cap <> base then
                        add Cap_provenance
                          (granule_subject owner_area vpn g)
                          (Printf.sprintf
                             "stored capability carries %s but sits in \
                              area [%#x..%#x)"
                             (if
                                Capability.prov cap
                                = Capability.root_provenance
                              then "the kernel root's authority"
                              else
                                Printf.sprintf "area %#x's authority"
                                  (Capability.prov cap))
                             base (base + bytes))
                      else if
                        Capability.in_range cap ~lo:base ~hi:(base + bytes)
                      then ()
                      else
                        match
                          if multi_as then None else area_holding_cap cap
                        with
                        | Some (_, _, pid2)
                          when pid2 <> opid && is_child_of ~parent:opid pid2
                          ->
                            (* S11: the reverse-direction fork leak — a
                               parent page still grants authority over
                               its child's area. *)
                            add Parent_child_leak
                              (granule_subject owner_area vpn g)
                              (Printf.sprintf
                                 "parent pid %d stores capability \
                                  [%#x..%#x) into child pid %d's area"
                                 opid (Capability.base cap)
                                 (Capability.limit cap) pid2)
                        | Some (_, _, pid2) when pid2 <> opid ->
                            add Cross_area_cap
                              (granule_subject owner_area vpn g)
                              (Printf.sprintf
                                 "stored capability [%#x..%#x) reaches pid \
                                  %d's area"
                                 (Capability.base cap) (Capability.limit cap)
                                 pid2)
                        | _ ->
                            add Cap_bounds
                              (granule_subject owner_area vpn g)
                              (Printf.sprintf
                                 "stored capability [%#x..%#x) escapes the \
                                  owner area [%#x..%#x)"
                                 (Capability.base cap) (Capability.limit cap)
                                 base (base + bytes)))))
    tables;

  (* {2 The frame pool: S1, S2, S7, S9} *)
  let live = ref 0 in
  Phys.iter_frames phys (fun f ->
      let rc = Phys.refcount f in
      let maps = mappings f in
      if rc > 0 then begin
        incr live;
        let expected = maps + if is_named f then 1 else 0 in
        if rc <> expected then
          record frame_vs Refcount_mismatch (frame_subject f)
            (Printf.sprintf
               "refcount %d but %d mapping(s)%s — %s" rc maps
               (if is_named f then " + 1 named-segment reference"
                else "")
               (if rc > expected then "leaked reference"
                else "mapping without a reference"));
        (* S7: an aliased frame where every mapping believes it is
           private. Only such a frame has its aliases listed: tables in
           order, ascending vpn. *)
        if maps > 1 && all_private f && not (is_named f) then begin
          let vpns = ref [] in
          List.iter
            (fun (pt, _) ->
              Page_table.iter pt (fun vpn (pte : Pte.t) ->
                  if pte.Pte.frame == f then vpns := vpn :: !vpns))
            tables;
          let vpns = List.rev !vpns in
          record alias_vs Private_aliased (frame_subject f)
            (Printf.sprintf
               "mapped %d times (vpns %s) yet every mapping is Private — a \
                write through one alias would silently leak to the others"
               (List.length vpns)
               (String.concat ", " (List.map (Printf.sprintf "%#x") vpns)))
        end
      end
      else begin
        if maps > 0 then
          record frame_vs Free_frame_state (frame_subject f)
            (Printf.sprintf "free (refcount %d) but still mapped %d time(s)"
               rc maps);
        let tags = Page.tagged_count (Phys.page f) in
        if tags > 0 then
          record frame_vs Free_frame_state (frame_subject f)
            (Printf.sprintf
               "free but %d granule(s) still hold valid capabilities" tags)
      end);
  if !live <> Phys.frames_in_use phys then
    record frame_vs Phys_accounting "phys pool"
      (Printf.sprintf "frames_in_use reports %d; census of live frames is %d"
         (Phys.frames_in_use phys) !live);
  List.rev_append !frame_vs
    (List.rev_append !mapping_vs (List.rev !alias_vs))

let sweep_and_lint ?capflow k =
  let trace = Kernel.trace k in
  sweep ?capflow k
  @ Lint.run ~dropped:(Trace.dropped trace) (Trace.records trace)

exception Unsafe of string

let assert_safe ?capflow k =
  match sweep_and_lint ?capflow k with
  | [] -> ()
  | vs -> raise (Unsafe (Invariant.report vs))
