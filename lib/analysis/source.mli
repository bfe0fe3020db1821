(** Analysis units: the repo's own sources, parsed from disk.

    The linter reads the text on disk, never a build product, so an edit
    is linted whether or not it has been rebuilt. The repo uses no ppx,
    so the parsetree is exactly what the compiler sees. *)

type t = {
  path : string;  (** the .ml path the unit was requested as *)
  modname : string;  (** capitalized basename, used to qualify locks *)
  structure : Parsetree.structure;
}

val parse_string : filename:string -> string -> (t, string) result
(** Parse an implementation from a string (tests, fixtures). *)

val load : string -> (t, string) result
(** Parse the [.ml] file at the path. *)

val scan : string list -> string list
(** Expand files and directories into a sorted list of [.ml] paths.
    Directory sweeps skip build trees and the seeded [fixtures]; a file
    named explicitly is always taken. *)
