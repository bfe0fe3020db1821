(** Plain-text table rendering for the experiment harness.

    Tables are built row by row from strings and rendered with aligned
    columns, in the spirit of the rows/series the paper reports. *)

type t

val create : title:string -> header:string list -> t
(** New table with a caption line and column names. *)

val add_row : t -> string list -> unit
(** Append a row. @raise Invalid_argument if the row width differs from
    the header width. *)

val render : t -> string
(** Render with a title line, a separator, and padded columns. *)

val print : t -> unit
(** [render] to stdout followed by a blank line. *)

val fmt_float : float -> string
(** Fixed-precision float formatting helper (4 significant digits,
    ["-"] for NaN). *)
