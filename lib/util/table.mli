(** ASCII table rendering for the benchmark harness.

    Renders the rows/series of each paper figure as an aligned text table,
    so [dune exec bench/main.exe] output can be compared side by side with
    the paper's plots. *)

type align = Left | Right

val render :
  ?align:align list ->
  header:string list ->
  string list list ->
  string [@@ufork.test_seam]
(** [render ~header rows] lays the table out with a separator line under the
    header. Columns default to right-aligned except the first. Rows shorter
    than the header are padded with empty cells. *)

val print :
  ?align:align list -> header:string list -> string list list -> unit
(** [render] followed by [print_string] and a trailing newline. *)

val fmt_f : ?dec:int -> float -> string
(** Fixed-point float formatting, default 2 decimals. *)
