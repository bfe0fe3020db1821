(** Minimal JSON reader and writer.

    The decoder ({!parse}) serves the trace importers and the
    [mcs_check] linter; it accepts standard JSON (RFC 8259): objects,
    arrays, strings with escapes, numbers, booleans and null. The
    {!Mcs_sched} trace exports and the online event logs print their
    records with [Printf] and quote every free string with {!quote},
    so all of them escape strings as {!encode} does. No dependency, no
    streaming — documents here are at most a few megabytes. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** fields in document order *)

val parse : string -> (t, string) result
(** Parse one JSON document. The error message carries the byte offset
    of the first offending character. Trailing whitespace is allowed,
    trailing garbage is not. *)

val encode : t -> string
(** Compact (single-line, no spaces) serialisation of a document, the
    encoder matching {!parse}: [parse (encode v) = Ok v] for every
    value whose numbers are finite. Control characters in strings are
    escaped, other bytes pass through verbatim; integral numbers within
    [1e15] print without an exponent, other numbers with round-trip
    precision.
    @raise Invalid_argument on a NaN or infinite [Num] (JSON has no
    representation for them). *)

val quote : string -> string
(** A JSON string literal: [s] escaped as {!encode} escapes strings,
    between double quotes. *)

(** {2 Accessors}

    All return [None] on a shape mismatch, so client code reads as a
    chain of [Option] binds rather than try/with. *)

val member : string -> t -> t option
(** Field of an object ([None] on missing field or non-object). *)

val to_float : t -> float option
val to_int : t -> int option
(** [Num] with an integral value within [int] range. *)

val to_string : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option

val get_float : string -> t -> float option
(** [get_float k obj] is [member k obj >>= to_float]; same pattern for
    the other [get_] accessors. *)

val get_int : string -> t -> int option
val get_string : string -> t -> string option
val get_list : string -> t -> t list option
