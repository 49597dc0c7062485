type addr = int

exception Violation of string

let violation fmt = Format.kasprintf (fun s -> raise (Violation s)) fmt

type t = {
  base : addr;
  length : int;
  cursor : addr;
  perms : Perms.t;
  otype : Otype.t;
  tag : bool;
  prov : int;
      (* provenance stamp: [root_provenance] for kernel-root-derived
         authority, otherwise the area base the authority is confined to.
         Metadata only — never part of [equal] or architectural checks. *)
}

let root_provenance = -1

(* The simulated virtual address space: the full non-negative int range.
   [max_int / 2] keeps base + length from overflowing. *)
let address_space_limit = max_int / 2

let root () =
  {
    base = 0;
    length = address_space_limit;
    cursor = 0;
    perms = Perms.all;
    otype = Otype.unsealed;
    tag = true;
    prov = root_provenance;
  }

let null =
  {
    base = 0;
    length = 0;
    cursor = 0;
    perms = Perms.empty;
    otype = Otype.unsealed;
    tag = false;
    prov = root_provenance;
  }

let base t = t.base
let length t = t.length
let limit t = t.base + t.length
let cursor t = t.cursor
let perms t = t.perms
let otype t = t.otype
let is_sealed t = Otype.is_sealed t.otype
let tag t = t.tag
let prov t = t.prov
let stamp t ~prov = { t with prov }

let pp ppf t =
  Format.fprintf ppf "cap{%s base=%#x len=%#x cur=%#x %a %a}"
    (if t.tag then "v" else "-")
    t.base t.length t.cursor Perms.pp t.perms Otype.pp t.otype

let require_usable op t =
  if not t.tag then violation "%s: capability tag is clear (%a)" op pp t;
  if is_sealed t then violation "%s: capability is sealed (%a)" op pp t

let mint ~parent ~base ~length ~perms =
  require_usable "mint" parent;
  if length < 0 then violation "mint: negative length";
  if base < parent.base || base + length > limit parent then
    violation "mint: bounds [%#x,%#x) exceed parent %a" base (base + length) pp
      parent;
  if not (Perms.is_subset ~sub:perms ~super:parent.perms) then
    violation "mint: permissions %a exceed parent %a" Perms.pp perms Perms.pp
      parent.perms;
  {
    base;
    length;
    cursor = base;
    perms;
    otype = Otype.unsealed;
    tag = true;
    prov = parent.prov;
  }

let with_cursor t cursor =
  if is_sealed t then violation "with_cursor: sealed capability is immutable";
  { t with cursor }

let incr_cursor t n = with_cursor t (t.cursor + n)

let restrict_perms t p =
  if is_sealed t then violation "restrict_perms: sealed capability";
  { t with perms = Perms.intersect t.perms p }

let set_bounds t ~base ~length =
  require_usable "set_bounds" t;
  if length < 0 then violation "set_bounds: negative length";
  if base < t.base || base + length > limit t then
    violation "set_bounds: widening [%#x,%#x) beyond %a" base (base + length)
      pp t;
  let cursor = if t.cursor < base then base
    else if t.cursor > base + length then base + length
    else t.cursor
  in
  { t with base; length; cursor }

let clear_tag t = { t with tag = false }

let seal ~authority t ot =
  require_usable "seal(authority)" authority;
  if not (Perms.has authority.perms Perms.seal) then
    violation "seal: authority lacks seal permission";
  if not t.tag then violation "seal: cannot seal untagged capability";
  if is_sealed t then violation "seal: already sealed";
  if not (Otype.is_sealed ot) then violation "seal: invalid object type";
  { t with otype = ot }

let unseal ~authority t =
  require_usable "unseal(authority)" authority;
  if not (Perms.has authority.perms Perms.unseal) then
    violation "unseal: authority lacks unseal permission";
  if not t.tag then violation "unseal: untagged capability";
  if not (is_sealed t) then violation "unseal: capability is not sealed";
  { t with otype = Otype.unsealed }

let check_invoke t =
  if not t.tag then violation "invoke: untagged capability";
  if not (is_sealed t) then violation "invoke: capability is not sealed";
  if not (Perms.has t.perms Perms.execute) then
    violation "invoke: sealed capability is not executable"

let invoke t =
  check_invoke t;
  { t with otype = Otype.unsealed }

let check_access t ~perm ~addr ~len =
  if not t.tag then violation "access: tag is clear (%a)" pp t;
  if is_sealed t then violation "access: sealed capability (%a)" pp t;
  if not (Perms.has t.perms perm) then
    violation "access: missing permission %a on %a" Perms.pp perm pp t;
  if len < 0 then violation "access: negative length";
  if addr < t.base || addr + len > limit t then
    violation "access: [%#x,%#x) out of bounds of %a" addr (addr + len) pp t

let contains t a = a >= t.base && a < limit t
let in_range t ~lo ~hi = t.base >= lo && limit t <= hi

let rebase t ~delta =
  { t with base = t.base + delta; cursor = t.cursor + delta }

let equal a b =
  a.base = b.base && a.length = b.length && a.cursor = b.cursor
  && Perms.equal a.perms b.perms
  && Otype.equal a.otype b.otype
  && a.tag = b.tag
