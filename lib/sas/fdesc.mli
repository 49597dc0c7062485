(** File descriptors and per-process descriptor tables.

    POSIX mandates that fork duplicates the parent's open descriptors
    (§3.5 step 1: "relevant system resources are also duplicated ... e.g.,
    open file and message queue descriptors"); {!Fdtable.dup_all} is that
    operation. Descriptions (the open-file objects) are shared between
    parent and child; descriptors (the integer slots) are per-process. *)

type description =
  | Vfs_file of Vfs.file
  | Pipe_read of Pipe.t
  | Pipe_write of Pipe.t
  | Null

type entry = { desc : description; mutable refcount : int ref }
(** [refcount] is shared by all descriptors referring to the description;
    pipe ends close when it drops to zero. *)

module Fdtable : sig
  type t

  val create : unit -> t
  (** Descriptors 0..2 are pre-opened to [Null]. *)

  val alloc : t -> description -> int
  (** Lowest free descriptor. *)

  val get : t -> int -> description
  (** A bounds check and an array read. Raises [Not_found] for a bad
      (free, negative or out-of-range) descriptor. *)

  val close : t -> int -> unit
  (** Releases the slot; when the shared refcount reaches zero, pipe ends
      are closed. Raises [Not_found] for a bad descriptor. *)

  val dup_all : t -> t
  (** The fork duplication: same descriptor numbers, shared descriptions,
      refcounts bumped. *)

  val close_all : t -> unit
  (** Process exit: close every descriptor, in ascending fd order. *)

  val open_count : t -> int
end
