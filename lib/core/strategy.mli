(** Memory-transfer strategies for μFork (§3.8).

    Classic CoW is unsound in a single address space: a child reading a
    page that contains absolute memory references would consume stale
    capabilities still pointing into the parent. The paper's answers: *)

type t =
  | Full_copy
      (** Synchronously copy (and relocate) the parent's entire area —
          including the whole static heap reservation — at fork time. *)
  | Coa
      (** Copy-on-Access: share initially, but any child access (and any
          parent write) triggers the copy + relocation. *)
  | Copa
      (** Copy-on-Pointer-Access: share read-only; writes by either side
          and {e capability loads by the child} (via the CHERI
          fault-on-capability-load page bit) trigger the copy +
          relocation. Plain data reads stay shared. *)

val to_string : t -> string
val all : t list
