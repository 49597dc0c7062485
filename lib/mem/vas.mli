(** Checked access to virtual memory through a capability and a page table.

    Every access performs the two checks the hardware would: the CHERI
    capability check (tag, seal, permissions, bounds — raising
    {!Ufork_cheri.Capability.Violation}) and the MMU check (mapping and
    page permissions — raising {!Fault} for the OS fault handler to resolve
    and retry, exactly like a page fault / capability-load fault). *)

type access = Read | Write | Exec | Cap_load | Cap_store

exception Fault of { vpn : int; addr : int; access : access }
(** The MMU-level fault. [vpn] is the faulting virtual page. *)

val pp_access : Format.formatter -> access -> unit

(** {1 Data access}

    All entry points take the authorizing capability [via] and the virtual
    address [addr] of the access ([addr] defaults to the capability's
    cursor in the [*_cur] variants used by application code). *)

val read_bytes : Page_table.t -> via:Ufork_cheri.Capability.t -> addr:int -> len:int -> bytes
val write_bytes : Page_table.t -> via:Ufork_cheri.Capability.t -> addr:int -> bytes -> unit
val read_u64 : Page_table.t -> via:Ufork_cheri.Capability.t -> addr:int -> int64
val write_u64 : Page_table.t -> via:Ufork_cheri.Capability.t -> addr:int -> int64 -> unit

(** {1 Capability access} *)

val load_cap :
  Page_table.t -> via:Ufork_cheri.Capability.t -> addr:int ->
  Ufork_cheri.Capability.t
(** 16-byte aligned capability load. Faults with [Cap_load] when the page's
    {!Pte.t.cap_load_fault} bit is set (the CoPA trigger), or [Read] when
    the page is not readable. *)

val store_cap :
  Page_table.t -> via:Ufork_cheri.Capability.t -> addr:int ->
  Ufork_cheri.Capability.t -> unit

(** {1 Unchecked kernel access}

    The kernel manipulates frames directly when copying pages and resolving
    faults; these helpers skip the capability check but still require a
    mapping (raising [Not_found] otherwise). *)

val kernel_page : Page_table.t -> vpn:int -> Page.t [@@ufork.test_seam]
val kernel_read_bytes : Page_table.t -> addr:int -> len:int -> bytes
  [@@ufork.test_seam]
val kernel_write_bytes : Page_table.t -> addr:int -> bytes -> unit
  [@@ufork.test_seam]
val kernel_store_cap :
  Page_table.t -> addr:int -> Ufork_cheri.Capability.t -> unit
val kernel_load_cap : Page_table.t -> addr:int -> Ufork_cheri.Capability.t
  [@@ufork.test_seam]

val kernel_clear_tags : Page_table.t -> addr:int -> len:int -> unit
(** Clear every capability tag in the (mapped parts of the) range — the
    allocator's reallocation hygiene: recycled memory must never hand out
    stale capabilities (cf. Cornucopia-style heap temporal safety). *)
