module Addr = Ufork_mem.Addr

exception Out_of_heap

type block = { addr : int; size : int; meta_index : int }

type t = {
  base : int;
  size : int;
  meta_capacity : int;
  mutable free_spans : (int * int) list; (* (addr, size), ascending *)
  blocks : (int, block) Hashtbl.t; (* start addr -> block *)
  mutable free_meta : int list;
  mutable next_meta : int;
  mutable high_meta : int;
  mutable used : int;
}

let create ~heap_base ~heap_size ~meta_capacity_granules =
  if heap_size <= 0 || meta_capacity_granules <= 0 then
    invalid_arg "Tinyalloc.create: non-positive size";
  if not (Addr.is_granule_aligned heap_base) then
    invalid_arg "Tinyalloc.create: unaligned base";
  {
    base = heap_base;
    size = heap_size;
    meta_capacity = meta_capacity_granules;
    free_spans = [ (heap_base, heap_size) ];
    blocks = Hashtbl.create 64;
    free_meta = [];
    next_meta = 0;
    high_meta = 0;
    used = 0;
  }

let take_meta t =
  match t.free_meta with
  | i :: rest ->
      t.free_meta <- rest;
      i
  | [] ->
      if t.next_meta >= t.meta_capacity then raise Out_of_heap;
      let i = t.next_meta in
      t.next_meta <- i + 1;
      if t.next_meta > t.high_meta then t.high_meta <- t.next_meta;
      i

let alloc t size =
  if size <= 0 then invalid_arg "Tinyalloc.alloc: non-positive size";
  let size = Addr.align_up size Addr.granule_size in
  (* First fit over the ascending span list. *)
  let rec fit acc = function
    | [] -> raise Out_of_heap
    | (a, s) :: rest when s >= size ->
        let remaining =
          if s = size then rest else (a + size, s - size) :: rest
        in
        (a, List.rev_append acc remaining)
    | span :: rest -> fit (span :: acc) rest
  in
  let addr, spans = fit [] t.free_spans in
  t.free_spans <- spans;
  let meta_index = take_meta t in
  let b = { addr; size; meta_index } in
  Hashtbl.replace t.blocks addr b;
  t.used <- t.used + size;
  b

(* Insert a span keeping the list sorted and coalesced. *)
let insert_span spans (addr, size) =
  let rec go = function
    | [] -> [ (addr, size) ]
    | (a, s) :: rest ->
        if addr + size < a then (addr, size) :: (a, s) :: rest
        else if addr + size = a then (addr, size + s) :: rest
        else if a + s = addr then go_merge (a, s + size) rest
        else (a, s) :: go rest
  and go_merge (a, s) = function
    | (a2, s2) :: rest when a + s = a2 -> (a, s + s2) :: rest
    | rest -> (a, s) :: rest
  in
  go spans

let free t addr =
  match Hashtbl.find_opt t.blocks addr with
  | None -> invalid_arg "Tinyalloc.free: not a live block start"
  | Some b ->
      Hashtbl.remove t.blocks addr;
      t.free_spans <- insert_span t.free_spans (b.addr, b.size);
      t.free_meta <- b.meta_index :: t.free_meta;
      t.used <- t.used - b.size;
      b

let block_of_addr t addr =
  (* Linear probe down to candidate starts would be slow; walk the table.
     Block counts are modest (thousands), and this is a test/debug path. *)
  (* Blocks never overlap, so at most one matches: order-independent. *)
  (Hashtbl.fold
     (fun _ b acc ->
       match acc with
       | Some _ -> acc
       | None -> if addr >= b.addr && addr < b.addr + b.size then Some b else None)
     t.blocks None [@ufork.order_independent])

let clone t ~delta =
  let blocks = Hashtbl.create (Hashtbl.length t.blocks) in
  (* Table-to-table copy with distinct keys: order cannot leak. *)
  (Hashtbl.iter
     (fun a b -> Hashtbl.replace blocks (a + delta) { b with addr = b.addr + delta })
     t.blocks [@ufork.order_independent]);
  {
    base = t.base + delta;
    size = t.size;
    meta_capacity = t.meta_capacity;
    free_spans = List.map (fun (a, s) -> (a + delta, s)) t.free_spans;
    blocks;
    free_meta = t.free_meta;
    next_meta = t.next_meta;
    high_meta = t.high_meta;
    used = t.used;
  }

let used_bytes t = t.used
let live_blocks t = Hashtbl.length t.blocks
let heap_base t = t.base

let high_water_meta_granules t = t.high_meta
