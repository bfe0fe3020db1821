(** Parsetree plumbing shared by the rule passes. *)

open Parsetree

val lid_names : Longident.t -> string list
(** Flattened path with a leading [Stdlib] dropped. *)

val unparen : expression -> expression

val is_call : target:string list -> expression -> expression list option
(** The argument list when [e] is an application of an identifier whose
    path ends in [target] (module-alias tolerant). *)

val is_bare_call : name:string -> expression -> expression list option
(** Like {!is_call} but only for the {e unqualified} [name], so bare
    ref operators don't match [Atomic.incr] or [Obs.incr]. *)

val path_key : expression -> string
(** Stable key for location identity ([t.lock], [c.value]); unknown
    shapes collapse to ["?"], never considered equal to anything. *)

val lock_name : expression -> string
(** The per-module lock class: the last segment of {!path_key}. *)

val last_of_lid : Longident.t -> string

val guarded_by_attr : attributes -> string option
(** [[@guarded_by m]] on a record field or [[@@guarded_by m]] on a
    top-level binding: accesses require the mutex class [m] held. *)

val locked_by_attr : attributes -> string option
(** [[@@locked_by m]] on a binding: callers hold [m] — seed the
    lockset when analyzing that function. *)

val domain_local_attr : attributes -> bool
(** [[@domain_local]] waiver: the marked expression's apparent race is
    confined to one domain by construction (say why in a comment). *)

val atomic_ok_attr : attributes -> bool
(** [[@atomic_ok]] waiver for ATOM001 on a deliberate get/set pair. *)

val no_lock_needed_attr : attributes -> bool
(** [[@no_lock_needed]] waiver for LOCK001 (e.g. init before spawn). *)

module StringSet : Set.S with type elt = string

val bind_pattern : StringSet.t -> pattern -> StringSet.t
