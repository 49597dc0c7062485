module Capability = Ufork_cheri.Capability

(* Spare storage that pages sharing the pool hand back when they drop
   it (clear, or a copy from an unwritten source) and take on their next
   first store or copy: byte buffers of arbitrary contents, and tag
   tables with every slot already [Capability.null]. Each stack holds at
   most [bound] entries; what does not fit is left to the GC. *)
type pool = {
  bound : int;
  buffers : Bytes.t array;
  mutable n_buffers : int;
  tables : Capability.t array array;
  mutable n_tables : int;
}

let pool ~bound =
  let bound = max 0 bound in
  {
    bound;
    buffers = Array.make bound Bytes.empty;
    n_buffers = 0;
    tables = Array.make bound [||];
    n_tables = 0;
  }

(* Pages made without a pool share this one, which keeps nothing (so
   sharing it across domains is safe). *)
let no_pool = pool ~bound:0
let pool_bound p = p.bound
let spare_buffers p = p.n_buffers
let spare_tables p = p.n_tables

type t = {
  (* [Bytes.empty] until the first store: an unwritten page reads as
     zeros without owning 4 KiB. *)
  mutable data : Bytes.t;
  (* Slot [g] holds granule [g]'s capability, [Capability.null] when the
     tag is clear (only tagged values are ever stored in a slot). [[||]]
     until the first tagged store. *)
  mutable caps : Capability.t array;
  mutable tagged : int; (* number of set slots *)
  pool : pool;
}

let create_in pool = { data = Bytes.empty; caps = [||]; tagged = 0; pool }
let create () = create_in no_pool
let written t = Bytes.length t.data > 0

let copy t =
  {
    data = (if written t then Bytes.copy t.data else Bytes.empty);
    caps = (if t.tagged > 0 then Array.copy t.caps else [||]);
    tagged = t.tagged;
    pool = t.pool;
  }

(* A spare byte buffer, or a fresh one when the pool is empty; contents
   arbitrary: callers overwrite it whole. *)
let take_buffer p =
  if p.n_buffers = 0 then Bytes.create Addr.page_size
  else begin
    let n = p.n_buffers - 1 in
    let b = p.buffers.(n) in
    p.buffers.(n) <- Bytes.empty;
    p.n_buffers <- n;
    b
  end

(* A tag table with every slot null. *)
let take_table p =
  if p.n_tables = 0 then Array.make Addr.granules_per_page Capability.null
  else begin
    let n = p.n_tables - 1 in
    let tbl = p.tables.(n) in
    p.tables.(n) <- [||];
    p.n_tables <- n;
    tbl
  end

(* Give up the page's bytes (back to reading zeros), to the pool while
   it has room. *)
let drop_data t =
  if written t then begin
    let p = t.pool in
    if p.n_buffers < p.bound then begin
      p.buffers.(p.n_buffers) <- t.data;
      p.n_buffers <- p.n_buffers + 1
    end;
    t.data <- Bytes.empty
  end

(* Give up the tag table (every tag clear), nulled, to the pool while it
   has room. A table with no set slot is already all null. *)
let drop_caps t =
  if Array.length t.caps > 0 then begin
    let p = t.pool in
    if p.n_tables < p.bound then begin
      if t.tagged > 0 then
        Array.fill t.caps 0 Addr.granules_per_page Capability.null;
      p.tables.(p.n_tables) <- t.caps;
      p.n_tables <- p.n_tables + 1
    end;
    t.caps <- [||]
  end;
  t.tagged <- 0

(* The page's bytes, zero-filled on the first store. *)
let storage t =
  if not (written t) then begin
    let b = take_buffer t.pool in
    Bytes.fill b 0 Addr.page_size '\000';
    t.data <- b
  end;
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
  if Array.length t.caps = 0 then t.caps <- take_table t.pool;
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

let clear_all_tags = drop_caps

(* Back to the fresh-page state: frame reuse from a freelist must be
   indistinguishable from a fresh allocation. *)
let clear t =
  drop_data t;
  drop_caps t

let copy_into ~src ~dst =
  if not (written src) then drop_data dst
  else begin
    if not (written dst) then dst.data <- take_buffer dst.pool;
    Bytes.blit src.data 0 dst.data 0 Addr.page_size
  end;
  if src.tagged = 0 then drop_caps dst
  else begin
    if Array.length dst.caps = 0 then dst.caps <- take_table dst.pool;
    Array.blit src.caps 0 dst.caps 0 Addr.granules_per_page;
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
