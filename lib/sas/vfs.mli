(** In-memory filesystem (ramdisk).

    The evaluation stores Redis dumps and Nginx document roots on a
    ram-disk "minimizing I/O latency" (§5.1); this VFS models exactly that:
    named byte files held in fixed 64 KiB host blocks. A growing file gains
    one block at a time, so a 100 MB dump is written without regrowing or
    re-copying what it already holds; reads and whole-file [contents]
    assemble their result from the blocks. Costs are charged by the
    syscall layer, not here. *)

type t
type file

val create : unit -> t

val open_ : t -> string -> [ `Read | `Write | `Create | `Append ] -> file
(** [`Read] requires the file to exist (raises [Not_found]); [`Create]
    truncates or creates; [`Append] creates if needed and seeks to the
    end; [`Write] opens an existing file for writing at offset 0. *)

val read : file -> int -> bytes
(** Sequential read from the file cursor; short result at EOF. *)

val pread : file -> off:int -> int -> bytes
(** Positional read of up to [n] bytes at [off]; short result at EOF.
    The cursor does not move. Raises [Invalid_argument] if [off < 0]. *)

val write : file -> bytes -> int
(** Sequential write at the cursor, growing the file; returns the count.
    The bytes are copied into the file before [write] returns. *)

val size_of : file -> int [@@ufork.test_seam]
val close : file -> unit

val exists : t -> string -> bool [@@ufork.test_seam]
val size : t -> string -> int [@@ufork.test_seam]
(** Raises [Not_found]. *)

val contents : t -> string -> string
(** Whole-file read (test/verification helper). Raises [Not_found]. *)

val put : t -> string -> string -> unit
(** Create/overwrite a file with the given contents (setup helper). *)

val rename : t -> src:string -> dst:string -> unit
(** Raises [Not_found] if [src] is missing; replaces [dst]. *)

val unlink : t -> string -> unit
val list : t -> string list [@@ufork.test_seam]
(** Sorted file names. *)
