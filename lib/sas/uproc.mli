(** μprocesses: the emulated POSIX processes of §3.4.

    A μprocess occupies one contiguous area of the virtual address space
    (Fig. 1), subdivided into GOT, code, data, stack, allocator-metadata
    and heap regions. The same record also serves as the process control
    block of the baseline OSes — there the area base is identical for every
    process and isolation comes from per-process page tables instead of
    capability bounds. *)

type state = Running | Zombie of int  (** exit status *) | Reaped

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
  pt : Ufork_mem.Page_table.t;
      (** The global table in the SASOS; a private one per process on the
          multi-address-space baselines. *)
  mutable allocator : Tinyalloc.t;
  fds : Fdesc.Fdtable.t;
  mutable state : state;
  mutable children : int list;
  exited_child : Ufork_sim.Sync.Cond.t;  (** Signalled on child exit. *)
  mutable private_bytes : int;
      (** Physical memory attributable to this process beyond what it
          shares with others: privately materialized frames plus kernel
          per-process state. This is the metric of Fig. 5 and Fig. 8. *)
  mutable first_alloc_done : bool;
      (** Used by the monolithic baseline's arena-pretouch model. *)
  mutable forked : bool;  (** True for processes created by fork. *)
  mutable killed : bool;
      (** A pending SIGKILL: honoured at the next kernel entry or blocking
          resume (§4.5's per-μprocess signals, minimally). *)
  mutable kernel_waker : Ufork_sim.Engine.waker;
      (** While blocked inside a syscall, the waker that interrupts the
          wait — how a kill reaches a process sleeping in the kernel;
          {!Ufork_sim.Engine.no_waker} otherwise. *)
}

val layout_regions : Image.t -> area_base:int -> regions [@@ufork.test_seam]
(** Carve the area at [area_base] into page-aligned regions with guard
    pages between them, in the order GOT, code, data, stack, metadata,
    heap. The result fits within {!Image.area_bytes}. *)

val create :
  engine:Ufork_sim.Engine.t ->
  pid:int ->
  ?parent_pid:int ->
  image:Image.t ->
  area_base:int ->
  pt:Ufork_mem.Page_table.t ->
  ?fds:Fdesc.Fdtable.t ->
  unit ->
  t
(** Builds the record (regions, allocator mirror, fd table, the
    child-exit condition on [engine]'s threads); does not map any pages
    — the kernel does that. *)

val delta : parent:t -> child:t -> int
(** [child.area_base - parent.area_base]: the relocation displacement. *)

val region_of_addr : t -> int -> string option
(** Region name containing the address, for diagnostics. *)

val contains : t -> int -> bool [@@ufork.test_seam]
(** Address lies within the μprocess area. *)
