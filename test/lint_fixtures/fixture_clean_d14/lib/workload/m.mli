(* D14 control: every export has a caller outside the module, reached
   through each form of reference the rule resolves. *)

val direct : int -> int
val aliased : int -> int
val local_alias : int -> int
val opened : int -> int
val from_example : int -> int

val seam : int -> int [@@ufork.test_seam]
(** Exists for test/ only, and marked so. *)
