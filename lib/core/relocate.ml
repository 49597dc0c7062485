module Capability = Ufork_cheri.Capability
module Page = Ufork_mem.Page
module Addr = Ufork_mem.Addr

type outcome = { granules_scanned : int; relocated : int }

(* Chaos: silently skip the rebase of exactly one capability (leaving its
   parent provenance and parent-area target intact in the child page), so
   the runtime capflow invariant R4 — not the architectural checks — must
   be what catches the leak. One-shot, consumed by the first rebase. The
   tag scan has no outside hook, so this is the one injection seam left in
   the mechanism: the harness assigns it from the run plan at every boot
   and clears it when the plan is uninstalled. *)
let chaos_skip_rebase = ref false

let relocate_cap ~owner_area ~child_base ~child_bytes cap =
  let in_child a = a >= child_base && a < child_base + child_bytes in
  if not (Capability.tag cap) then cap
  else if in_child (Capability.base cap) && in_child (Capability.cursor cap)
  then
    (* Already targets the child: restamp only. [Capability.equal] ignores
       the provenance stamp, so the relocated count is unaffected. *)
    Capability.stamp cap ~prov:child_base
  else
    match owner_area (Capability.cursor cap) with
    | Some (src_base, _src_bytes) ->
        if !chaos_skip_rebase then begin
          chaos_skip_rebase := false;
          cap
        end
        else
          Capability.stamp
            (Capability.rebase cap ~delta:(child_base - src_base))
            ~prov:child_base
    | None ->
        (* No identifiable source μprocess: never leak the authority. *)
        Capability.clear_tag cap

let relocate_page ~owner_area ~child_base ~child_bytes page =
  let relocated = ref 0 in
  Page.map_caps page (fun cap ->
      let cap' = relocate_cap ~owner_area ~child_base ~child_bytes cap in
      if not (Capability.equal cap cap') then incr relocated;
      cap');
  { granules_scanned = Addr.granules_per_page; relocated = !relocated }
