module Addr = Ufork_mem.Addr
module Page_table = Ufork_mem.Page_table
module Sync = Ufork_sim.Sync

type state = Running | Zombie of int | Reaped

type regions = {
  got_base : int;
  got_bytes : int;
  code_base : int;
  code_bytes : int;
  data_base : int;
  data_bytes : int;
  stack_base : int;
  stack_bytes : int;
  meta_base : int;
  meta_bytes : int;
  heap_base : int;
  heap_bytes : int;
}

type t = {
  pid : int;
  parent_pid : int option;
  image : Image.t;
  area_base : int;
  area_bytes : int;
  regions : regions;
  pt : Page_table.t;
  mutable allocator : Tinyalloc.t;
  fds : Fdesc.Fdtable.t;
  mutable state : state;
  mutable children : int list;
  exited_child : Sync.Cond.t;
  mutable private_bytes : int;
  mutable first_alloc_done : bool;
  mutable forked : bool;
  mutable killed : bool;
  mutable kernel_waker : Ufork_sim.Engine.waker option;
}

let guard = Addr.page_size

let layout_regions image ~area_base =
  let a v = Addr.align_up v Addr.page_size in
  let got_bytes = a (Image.got_pages image * Addr.page_size) in
  let code_bytes = a image.Image.code_bytes in
  let data_bytes = a image.Image.data_bytes in
  let stack_bytes = a image.Image.stack_bytes in
  let meta_bytes = a (Image.metadata_capacity_bytes image) in
  let heap_bytes = a image.Image.heap_bytes in
  let got_base = area_base in
  let code_base = got_base + got_bytes + guard in
  let data_base = code_base + code_bytes + guard in
  let stack_base = data_base + data_bytes + guard in
  let meta_base = stack_base + stack_bytes + guard in
  let heap_base = meta_base + meta_bytes + guard in
  {
    got_base;
    got_bytes;
    code_base;
    code_bytes;
    data_base;
    data_bytes;
    stack_base;
    stack_bytes;
    meta_base;
    meta_bytes;
    heap_base;
    heap_bytes;
  }

let create ~pid ?parent_pid ~image ~area_base ~pt ?fds () =
  if not (Addr.is_granule_aligned area_base) then
    invalid_arg "Uproc.create: unaligned area base";
  let regions = layout_regions image ~area_base in
  let allocator =
    Tinyalloc.create ~heap_base:regions.heap_base
      ~heap_size:regions.heap_bytes
      ~meta_capacity_granules:(regions.meta_bytes / Addr.granule_size)
  in
  {
    pid;
    parent_pid;
    image;
    area_base;
    area_bytes = Image.area_bytes image;
    regions;
    pt;
    allocator;
    fds = (match fds with Some f -> f | None -> Fdesc.Fdtable.create ());
    state = Running;
    children = [];
    exited_child = Sync.Cond.create ();
    private_bytes = 0;
    first_alloc_done = false;
    forked = false;
    killed = false;
    kernel_waker = None;
  }

let delta ~parent ~child = child.area_base - parent.area_base

let region_of_addr t addr =
  let r = t.regions in
  let within base bytes = addr >= base && addr < base + bytes in
  if within r.got_base r.got_bytes then Some "got"
  else if within r.code_base r.code_bytes then Some "code"
  else if within r.data_base r.data_bytes then Some "data"
  else if within r.stack_base r.stack_bytes then Some "stack"
  else if within r.meta_base r.meta_bytes then Some "meta"
  else if within r.heap_base r.heap_bytes then Some "heap"
  else None

let contains t addr = addr >= t.area_base && addr < t.area_base + t.area_bytes
