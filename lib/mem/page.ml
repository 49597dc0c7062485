module Capability = Ufork_cheri.Capability

type t = {
  (* [Bytes.empty] until the first store: an unwritten page reads as
     zeros without owning 4 KiB. *)
  mutable data : Bytes.t;
  (* Slot [g] holds granule [g]'s capability, [Capability.null] when the
     tag is clear (only tagged values are ever stored in a slot). [[||]]
     until the first tagged store. *)
  mutable caps : Capability.t array;
  mutable tagged : int; (* number of set slots *)
}

let create () = { data = Bytes.empty; caps = [||]; tagged = 0 }
let written t = Bytes.length t.data > 0

let copy t =
  {
    data = (if written t then Bytes.copy t.data else Bytes.empty);
    caps = (if t.tagged > 0 then Array.copy t.caps else [||]);
    tagged = t.tagged;
  }

(* The page's bytes, zero-filled on the first store. *)
let storage t =
  if not (written t) then t.data <- Bytes.make Addr.page_size '\000';
  t.data

let check_range off len =
  if off < 0 || len < 0 || off + len > Addr.page_size then
    invalid_arg "Page: access out of page bounds"

let slot_tagged t g = t.tagged > 0 && Capability.tag t.caps.(g)

let clear_slot t g =
  if slot_tagged t g then begin
    t.caps.(g) <- Capability.null;
    t.tagged <- t.tagged - 1
  end

let set_slot t g cap =
  if Array.length t.caps = 0 then
    t.caps <- Array.make Addr.granules_per_page Capability.null;
  if not (Capability.tag t.caps.(g)) then t.tagged <- t.tagged + 1;
  t.caps.(g) <- cap

(* Any raw write into a granule invalidates the capability it may hold. *)
let clear_tags_in t ~off ~len =
  if t.tagged > 0 && len > 0 then
    for g = off / Addr.granule_size to (off + len - 1) / Addr.granule_size do
      clear_slot t g
    done

let clear_tags t ~off ~len =
  check_range off len;
  clear_tags_in t ~off ~len

let read_into t ~off ~len dst ~pos =
  check_range off len;
  if written t then Bytes.blit t.data off dst pos len
  else Bytes.fill dst pos len '\000'

let read_bytes t ~off ~len =
  check_range off len;
  if written t then Bytes.sub t.data off len else Bytes.make len '\000'

let write_from t ~off src ~pos ~len =
  check_range off len;
  clear_tags_in t ~off ~len;
  if len > 0 then Bytes.blit src pos (storage t) off len

let write_bytes t ~off b = write_from t ~off b ~pos:0 ~len:(Bytes.length b)

let read_u8 t ~off =
  check_range off 1;
  if written t then Char.code (Bytes.get t.data off) else 0

let write_u8 t ~off v =
  check_range off 1;
  clear_tags_in t ~off ~len:1;
  Bytes.set (storage t) off (Char.chr (v land 0xff))

let read_u64 t ~off =
  check_range off 8;
  if written t then Bytes.get_int64_le t.data off else 0L

let write_u64 t ~off v =
  check_range off 8;
  clear_tags_in t ~off ~len:8;
  Bytes.set_int64_le (storage t) off v

let require_aligned off =
  if not (Addr.is_granule_aligned off) then
    invalid_arg "Page: capability access must be 16-byte aligned";
  check_range off Addr.granule_size

(* Mirror the cursor into the raw bytes so integer loads of a stored
   pointer read a sensible address. *)
let mirror_cursor t ~off cap =
  Bytes.set_int64_le (storage t) off (Int64.of_int (Capability.cursor cap))

let store_cap t ~off cap =
  require_aligned off;
  let g = off / Addr.granule_size in
  mirror_cursor t ~off cap;
  if Capability.tag cap then set_slot t g cap else clear_slot t g

let load_cap t ~off =
  require_aligned off;
  let g = off / Addr.granule_size in
  if slot_tagged t g then t.caps.(g)
  else
    (* The granule holds raw data: the load yields an untagged value. *)
    Capability.(clear_tag (with_cursor null (Int64.to_int (read_u64 t ~off))))

let clear_tag_at t ~off =
  require_aligned off;
  clear_slot t (off / Addr.granule_size)

let tag_at t ~off =
  let off = Addr.align_down off Addr.granule_size in
  require_aligned off;
  slot_tagged t (off / Addr.granule_size)

let tagged_granules t =
  let acc = ref [] in
  if t.tagged > 0 then
    for g = Addr.granules_per_page - 1 downto 0 do
      if Capability.tag t.caps.(g) then acc := g :: !acc
    done;
  !acc

let tagged_count t = t.tagged

let clear_all_tags t =
  t.caps <- [||];
  t.tagged <- 0

(* Back to the fresh-page state: frame reuse from a freelist must be
   indistinguishable from a fresh allocation. *)
let clear t =
  t.data <- Bytes.empty;
  clear_all_tags t

let copy_into ~src ~dst =
  if not (written src) then dst.data <- Bytes.empty
  else if written dst then Bytes.blit src.data 0 dst.data 0 Addr.page_size
  else dst.data <- Bytes.copy src.data;
  if src.tagged = 0 then clear_all_tags dst
  else begin
    if Array.length dst.caps = 0 then dst.caps <- Array.copy src.caps
    else Array.blit src.caps 0 dst.caps 0 Addr.granules_per_page;
    dst.tagged <- src.tagged
  end

let iter_caps t f =
  if t.tagged > 0 then begin
    let caps = t.caps in
    for g = 0 to Addr.granules_per_page - 1 do
      let cap = caps.(g) in
      if Capability.tag cap then f g cap
    done
  end

let map_caps t f =
  if t.tagged > 0 then
    for g = 0 to Addr.granules_per_page - 1 do
      let cap = t.caps.(g) in
      if Capability.tag cap then begin
        let cap' = f cap in
        mirror_cursor t ~off:(g * Addr.granule_size) cap';
        if Capability.tag cap' then t.caps.(g) <- cap' else clear_slot t g
      end
    done
