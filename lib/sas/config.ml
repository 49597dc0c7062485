type isolation = No_isolation | Fault_isolation | Full_isolation
type syscall_mode = Sealed_entry | Trap
type area_fit = First_fit | Best_fit
type lock_mode = Big_kernel_lock | Sharded_locks

type t = {
  isolation : isolation;
  toctou : bool;
  syscall_mode : syscall_mode;
  lock_mode : lock_mode;
  parent_touch_pages : int;
  child_touch_pages : int;
  arena_pretouch_fraction : float;
  kernel_overhead_bytes : int;
  aslr_seed : int64 option;
  area_fit : area_fit;
}

let ufork_default =
  {
    isolation = Full_isolation;
    toctou = true;
    syscall_mode = Sealed_entry;
    lock_mode = Sharded_locks;
    parent_touch_pages = 8;
    child_touch_pages = 6;
    arena_pretouch_fraction = 0.;
    kernel_overhead_bytes = 96 * 1024;
    aslr_seed = None;
    area_fit = First_fit;
  }

let ufork_fast =
  { ufork_default with isolation = Fault_isolation; toctou = false }

let cheribsd_default =
  {
    isolation = Full_isolation;
    toctou = true;
    syscall_mode = Trap;
    lock_mode = Sharded_locks;
    parent_touch_pages = 8;
    child_touch_pages = 24;
    arena_pretouch_fraction = 0.5;
    kernel_overhead_bytes = 240 * 1024;
    aslr_seed = None;
    area_fit = First_fit;
  }

let nephele_default =
  {
    isolation = Full_isolation;
    toctou = false;
    syscall_mode = Sealed_entry;
    lock_mode = Big_kernel_lock;
    parent_touch_pages = 8;
    child_touch_pages = 6;
    arena_pretouch_fraction = 0.;
    kernel_overhead_bytes = 64 * 1024;
    aslr_seed = None;
    area_fit = First_fit;
  }

let linux_default =
  {
    isolation = Full_isolation;
    toctou = false;
    syscall_mode = Trap;
    lock_mode = Sharded_locks;
    parent_touch_pages = 8;
    child_touch_pages = 12;
    arena_pretouch_fraction = 0.06;
    kernel_overhead_bytes = 96 * 1024;
    aslr_seed = None;
    area_fit = First_fit;
  }

let with_aslr seed t = { t with aslr_seed = Some seed }
let with_area_fit area_fit t = { t with area_fit }
let with_isolation isolation t = { t with isolation }
let with_lock_mode lock_mode t = { t with lock_mode }
