(* D14: three exports that should not be exported as they are. *)

val used : int -> int
(** Called from bin/: fine. *)

val unused : int -> int
(** Called only inside this module: nothing outside references it. *)

val probe : int -> int
(** Called only from test/, and not marked as a seam. *)

val stale : int -> int [@@ufork.test_seam]
(** Marked as a seam, but bin/ calls it. *)
