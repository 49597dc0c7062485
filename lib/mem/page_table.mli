(** A page table: virtual page number → {!Pte.t}.

    In the single-address-space OS there is one page table for the whole
    machine; the monolithic baseline creates one per process; the VM-clone
    baseline one per VM. The table owns frame refcounts: mapping retains,
    unmapping releases.

    It is a two-level radix array, like the hardware tables it models:
    256-slot leaves (1 MiB of address space each, small enough for the
    minor heap), allocated on the first map into them, under a directory
    indexed by [vpn lsr 8] that grows by doubling. Lookups and
    single-entry updates are index arithmetic, and every walk visits
    vpns in ascending order, skipping absent leaves whole. *)

type t

val create : Phys.t -> t

val map : t -> vpn:int -> Pte.t -> unit
(** Install an entry. The caller must have arranged the frame's refcount
    (a fresh [Phys.alloc] frame is ready to map once; use {!map_shared} to
    alias an existing frame). Raises [Invalid_argument] if [vpn] is
    already mapped or negative. *)

val map_shared : t -> vpn:int -> Pte.t -> unit
(** Like {!map} but retains the frame first (the entry aliases a frame
    already mapped elsewhere). *)

val unmap : t -> vpn:int -> unit
(** Remove the entry and release its frame. Raises [Invalid_argument] if
    unmapped. *)

val unmap_range : t -> vpn:int -> count:int -> unit
(** Unmap every mapped page in [vpn, vpn+count); silently skips holes. *)

val lookup : t -> vpn:int -> Pte.t option
val lookup_exn : t -> vpn:int -> Pte.t
(** Raises [Not_found] if unmapped. *)

val is_mapped : t -> vpn:int -> bool

val replace_frame : t -> vpn:int -> Phys.frame -> unit
(** Point the entry at a new frame, releasing the old one. The new frame
    must already carry a refcount for this mapping (e.g. fresh from
    [Phys.alloc]). This is the page-copy commit step of CoW/CoA/CoPA. *)

val iter_range : t -> vpn:int -> count:int -> (int -> Pte.t -> unit) -> unit
(** Apply to each mapped page in the range, ascending vpn. *)

val map_range : t -> vpn:int -> count:int -> (int -> Pte.t option) -> int
(** Range fill: for every {e unmapped} vpn in [vpn, vpn+count), ascending,
    install [f v] if it returns an entry (refcount discipline as {!map}).
    Already-mapped pages are left untouched (never passed to [f]). Returns
    how many entries were installed — the batch size callers charge. *)

val fold_range : t -> vpn:int -> count:int -> init:'a -> f:(int -> Pte.t -> 'a -> 'a) -> 'a
(** Fold over each mapped page in [vpn, vpn+count), ascending vpn: cost is
    proportional to the range's leaves, not the table size. *)

val mapped_count : t -> int

val fold : t -> init:'a -> f:(int -> Pte.t -> 'a -> 'a) -> 'a
  [@@ufork.test_seam]
(** Fold over every mapped page, ascending vpn. *)

val iter : t -> (int -> Pte.t -> unit) -> unit
(** Apply to every mapped page, ascending vpn; the walk itself
    allocates nothing. *)
