(** Address arithmetic for the simulated machine.

    Pages are 4 KiB (as on Morello) and capability granules 16 bytes (the
    in-memory size of a CHERI capability, the unit at which tags are kept
    and at which μFork's relocation scan walks a page, §4.2). *)

val page_size : int (** 4096 *)

val granule_size : int (** 16 *)

val granules_per_page : int (** 256 *)

val vpn_of_addr : int -> int
(** Virtual page number containing an address. *)

val addr_of_vpn : int -> int
(** First address of a virtual page. *)

val page_offset : int -> int
(** Offset of an address within its page. *)

val is_granule_aligned : int -> bool
val align_up : int -> int -> int
(** [align_up v a] rounds [v] up to a multiple of [a] (a power of two). *)

val align_down : int -> int -> int

val pages_spanned : addr:int -> len:int -> int [@@ufork.test_seam]
(** Number of distinct pages touched by a [len]-byte access at [addr]
    ([len = 0] touches none). *)

val bytes_to_pages : int -> int
(** Pages needed to hold [n] bytes (rounding up). *)
