module Api = Ufork_sas.Api
module Capability = Ufork_cheri.Capability

let got_slot = 0
let max_key = 40

(* Block layouts (16-byte capability granules):
   header : [0..8) count | [8..16) buckets | @16 cap->bucket-array
   bucket array : granule i = cap->first entry of chain i (untagged if empty)
   entry  : @0 cap->next | @16 cap->robj | [32..40) hash | [40) keylen | [41..) key
   robj   : [0..8) value length | @16 cap->data | [32..) data bytes *)
let header_size = 48
let entry_size = 96
let robj_header = 32

type t = { api : Api.t; header : Capability.t }

let fnv1a s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

let charge_hash (api : Api.t) key =
  api.Api.compute (Int64.of_int (40 + (2 * String.length key)))

let create api ?(buckets = 1024) () =
  if buckets <= 0 then invalid_arg "Kvstore.create";
  let header = api.Api.malloc header_size in
  let arr = api.Api.malloc (buckets * 16) in
  api.Api.write_u64 header ~off:0 0L;
  api.Api.write_u64 header ~off:8 (Int64.of_int buckets);
  api.Api.store_cap header ~off:16 arr;
  api.Api.got_set got_slot header;
  { api; header }

let open_ api = { api; header = api.Api.got_get got_slot }

let buckets t = Int64.to_int (t.api.Api.read_u64 t.header ~off:8)
let count t = Int64.to_int (t.api.Api.read_u64 t.header ~off:0)

let set_count t n = t.api.Api.write_u64 t.header ~off:0 (Int64.of_int n)

let bucket_cap t = t.api.Api.load_cap t.header ~off:16

let read_key t entry =
  let klen = Char.code (Bytes.get (t.api.Api.read_bytes entry ~off:40 ~len:1) 0) in
  Bytes.to_string (t.api.Api.read_bytes entry ~off:41 ~len:klen)

(* Walk chain [head] looking for [key]; returns (entry, previous entry
   option). Charges per-entry probe work. *)
let find_entry t ~head ~hash ~key =
  let rec walk prev entry =
    if not (Capability.tag entry) then None
    else begin
      t.api.Api.compute 60L;
      let h = t.api.Api.read_u64 entry ~off:32 in
      if h = hash && read_key t entry = key then Some (entry, prev)
      else walk (Some entry) (t.api.Api.load_cap entry ~off:0)
    end
  in
  walk None head

let locate t key =
  if String.length key > max_key then invalid_arg "Kvstore: key too long";
  charge_hash t.api key;
  let hash = fnv1a key in
  let idx = Int64.to_int (Int64.rem (Int64.logand hash Int64.max_int)
                            (Int64.of_int (buckets t))) in
  let arr = bucket_cap t in
  let head = t.api.Api.load_cap arr ~off:(idx * 16) in
  (hash, idx, arr, head)

let make_robj t value =
  let len = Bytes.length value in
  let robj = t.api.Api.malloc (robj_header + max 1 len) in
  t.api.Api.write_u64 robj ~off:0 (Int64.of_int len);
  t.api.Api.store_cap robj ~off:16 (Capability.incr_cursor robj robj_header);
  if len > 0 then t.api.Api.write_bytes robj ~off:robj_header value;
  (* Serialization-side of the store charges per byte; storing is cheap
     beyond the copies themselves. *)
  t.api.Api.compute (Int64.of_int (len / 8));
  robj

(* Grow the bucket array 4x once the load factor passes 1, relinking every
   chain — like Redis's dict rehash (done eagerly here; Redis amortizes).
   All the pointer traffic happens in simulated memory, so a recently
   rehashed dict has more capability-bearing pages for CoPA to find. *)
let maybe_rehash t =
  let n = count t and b = buckets t in
  if n > b then begin
    let nb = 4 * b in
    let old_arr = bucket_cap t in
    let arr = t.api.Api.malloc (nb * 16) in
    t.api.Api.compute (Int64.of_int (64 * n));
    for i = 0 to b - 1 do
      (* Walk the old chain, pushing each entry onto its new bucket. *)
      let rec move entry =
        if Capability.tag entry then begin
          let next = t.api.Api.load_cap entry ~off:0 in
          let h = t.api.Api.read_u64 entry ~off:32 in
          let idx =
            Int64.to_int
              (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int nb))
          in
          let head = t.api.Api.load_cap arr ~off:(idx * 16) in
          t.api.Api.store_cap entry ~off:0 head;
          t.api.Api.store_cap arr ~off:(idx * 16) entry;
          move next
        end
      in
      move (t.api.Api.load_cap old_arr ~off:(i * 16))
    done;
    t.api.Api.store_cap t.header ~off:16 arr;
    t.api.Api.write_u64 t.header ~off:8 (Int64.of_int nb);
    t.api.Api.free old_arr
  end

let set t ~key ~value =
  let hash, idx, arr, head = locate t key in
  match find_entry t ~head ~hash ~key with
  | Some (entry, _prev) ->
      let old = t.api.Api.load_cap entry ~off:16 in
      t.api.Api.free old;
      t.api.Api.store_cap entry ~off:16 (make_robj t value)
  | None ->
      let entry = t.api.Api.malloc entry_size in
      t.api.Api.store_cap entry ~off:0 head;
      t.api.Api.store_cap entry ~off:16 (make_robj t value);
      t.api.Api.write_u64 entry ~off:32 hash;
      let kb = Bytes.make (1 + String.length key) '\000' in
      Bytes.set kb 0 (Char.chr (String.length key));
      Bytes.blit_string key 0 kb 1 (String.length key);
      t.api.Api.write_bytes entry ~off:40 kb;
      t.api.Api.store_cap arr ~off:(idx * 16) entry;
      set_count t (count t + 1);
      maybe_rehash t

let read_robj t robj =
  let len = Int64.to_int (t.api.Api.read_u64 robj ~off:0) in
  if len = 0 then Bytes.create 0
  else begin
    let data = t.api.Api.load_cap robj ~off:16 in
    t.api.Api.read_bytes data ~off:0 ~len
  end

let get t ~key =
  let hash, _idx, _arr, head = locate t key in
  match find_entry t ~head ~hash ~key with
  | None -> None
  | Some (entry, _) -> Some (read_robj t (t.api.Api.load_cap entry ~off:16))

let delete t ~key =
  let hash, idx, arr, head = locate t key in
  match find_entry t ~head ~hash ~key with
  | None -> false
  | Some (entry, prev) ->
      let next = t.api.Api.load_cap entry ~off:0 in
      (match prev with
      | None -> t.api.Api.store_cap arr ~off:(idx * 16) next
      | Some p -> t.api.Api.store_cap p ~off:0 next);
      t.api.Api.free (t.api.Api.load_cap entry ~off:16);
      t.api.Api.free entry;
      set_count t (count t - 1);
      true

let iter t f =
  let arr = bucket_cap t in
  let n = buckets t in
  for i = 0 to n - 1 do
    t.api.Api.compute 8L;
    let rec walk entry =
      if Capability.tag entry then begin
        let key = read_key t entry in
        let robj = t.api.Api.load_cap entry ~off:16 in
        let value_len = Int64.to_int (t.api.Api.read_u64 robj ~off:0) in
        f ~key ~value_len ~read_value:(fun () -> read_robj t robj);
        walk (t.api.Api.load_cap entry ~off:0)
      end
    in
    walk (t.api.Api.load_cap arr ~off:(i * 16))
  done

let bucket_count = buckets
