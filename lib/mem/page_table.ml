module Hb = Ufork_util.Hb

(* Two-level radix table: [dir.(vpn lsr leaf_bits)] is a 256-slot leaf,
   allocated on the first map into it and kept for the table's life (2 KiB
   of host memory per 1 MiB of simulated address space); absent leaves
   share the empty array. A leaf is minor-heap sized, so the entries a
   short-lived machine maps die young with it instead of being promoted
   through a major-heap array. The directory grows by doubling to cover
   the highest mapped vpn. Lookups are index arithmetic and every walk
   visits vpns in ascending order, skipping absent leaves whole. *)
let leaf_bits = 8
let leaf_size = 1 lsl leaf_bits
let leaf_mask = leaf_size - 1

type t = {
  id : int;
  phys : Phys.t;
  mutable dir : Pte.t option array array;
  mutable count : int;
}

(* Table identity for the happens-before bus: PTE mutations are
   published per (table, vpn) so the race detector can pair conflicting
   accesses. *)
let next_id = ref 0

let create phys =
  incr next_id;
  { id = !next_id; phys; dir = [||]; count = 0 }

let phys t = t.phys
let id t = t.id

let note t vpn site =
  if Hb.on () then
    Hb.emit
      (Hb.Write { tid = Hb.tid (); loc = Hb.Pte { table = t.id; vpn }; site })

(* A negative vpn indexes past the directory ([lsr]), so it reads as
   unmapped. *)
let lookup t ~vpn =
  let di = vpn lsr leaf_bits in
  if di < Array.length t.dir then
    let leaf = t.dir.(di) in
    if Array.length leaf = 0 then None else leaf.(vpn land leaf_mask)
  else None

let lookup_exn t ~vpn =
  match lookup t ~vpn with Some p -> p | None -> raise Not_found

let is_mapped t ~vpn =
  match lookup t ~vpn with Some _ -> true | None -> false

let leaf_for_map t vpn =
  if vpn < 0 then
    invalid_arg (Printf.sprintf "Page_table.map: negative vpn %d" vpn);
  let di = vpn lsr leaf_bits in
  let n = Array.length t.dir in
  if di >= n then begin
    let cap = ref (max 16 n) in
    while !cap <= di do
      cap := 2 * !cap
    done;
    let dir = Array.make !cap [||] in
    Array.blit t.dir 0 dir 0 n;
    t.dir <- dir
  end;
  let leaf = t.dir.(di) in
  if Array.length leaf > 0 then leaf
  else begin
    let leaf = Array.make leaf_size None in
    t.dir.(di) <- leaf;
    leaf
  end

(* Install [slot] (a [Some pte]) at an unmapped [vpn]. *)
let install t vpn slot site =
  let leaf = leaf_for_map t vpn in
  note t vpn site;
  let i = vpn land leaf_mask in
  (match leaf.(i) with None -> t.count <- t.count + 1 | Some _ -> ());
  leaf.(i) <- slot

let map t ~vpn pte =
  if is_mapped t ~vpn then
    invalid_arg (Printf.sprintf "Page_table.map: vpn %#x already mapped" vpn);
  install t vpn (Some pte) "Page_table.map"

let map_shared t ~vpn pte =
  Phys.retain t.phys pte.Pte.frame;
  map t ~vpn pte

let remove t vpn pte =
  note t vpn "Page_table.unmap";
  Phys.release t.phys pte.Pte.frame;
  t.dir.(vpn lsr leaf_bits).(vpn land leaf_mask) <- None;
  t.count <- t.count - 1

let unmap t ~vpn =
  match lookup t ~vpn with
  | None ->
      invalid_arg (Printf.sprintf "Page_table.unmap: vpn %#x not mapped" vpn)
  | Some pte -> remove t vpn pte

let replace_frame t ~vpn frame =
  match lookup t ~vpn with
  | None ->
      invalid_arg
        (Printf.sprintf "Page_table.replace_frame: vpn %#x not mapped" vpn)
  | Some pte ->
      note t vpn "Page_table.replace_frame";
      Phys.release t.phys pte.Pte.frame;
      pte.Pte.frame <- frame

(* Apply [f v pte] to each mapped vpn in [first, last], ascending. The
   directory and each slot are read as the walk reaches them, so [f] may
   map or unmap. *)
let walk t ~first ~last f =
  let v = ref first in
  while !v <= last do
    let di = !v lsr leaf_bits in
    let stop = Int.min last ((di lsl leaf_bits) lor leaf_mask) in
    (if di < Array.length t.dir then
       let leaf = t.dir.(di) in
       if Array.length leaf > 0 then
         for u = !v to stop do
           match leaf.(u land leaf_mask) with
           | Some pte -> f u pte
           | None -> ()
         done);
    v := stop + 1
  done

let unmap_range t ~vpn ~count =
  walk t ~first:vpn ~last:(vpn + count - 1) (remove t)

let iter_range t ~vpn ~count f = walk t ~first:vpn ~last:(vpn + count - 1) f

let map_range t ~vpn ~count f =
  if count < 0 then invalid_arg "Page_table.map_range: negative count";
  let mapped = ref 0 in
  for v = vpn to vpn + count - 1 do
    if not (is_mapped t ~vpn:v) then
      match f v with
      | None -> ()
      | Some _ as slot ->
          (* Stored as returned: no second option box per page. *)
          install t v slot "Page_table.map_range";
          incr mapped
  done;
  !mapped

let fold_range t ~vpn ~count ~init ~f =
  if count < 0 then invalid_arg "Page_table.fold_range: negative count";
  let acc = ref init in
  walk t ~first:vpn ~last:(vpn + count - 1) (fun v pte -> acc := f v pte !acc);
  !acc

let mapped_count t = t.count

let fold t ~init ~f =
  fold_range t ~vpn:0 ~count:(Array.length t.dir * leaf_size) ~init ~f

let iter t f = walk t ~first:0 ~last:((Array.length t.dir * leaf_size) - 1) f
