(** Concurrency-soundness static analyzer over the repo's own sources.

    Mirrors the [lib/check] design — a rule registry ({!Rule}),
    structured diagnostics ({!Finding}), seeded-violation fixtures —
    but the subject is the {e implementation}: lockset discipline over
    [[@guarded_by]] annotations, the lock acquisition-order graph,
    domain-escape of captured mutable state, and Atomic read-modify-
    write hygiene. Driven by [bin/mcs_lint_cli]; the dynamic
    counterpart is the vector-clock happens-before tracker
    [Mcs_serve.Hb] exercised under the dune [race] profile. *)

val run : Source.t list -> Finding.t list
(** All rule families over the units, one sorted deduplicated report;
    the LOCK002 cycle check runs on the union of all units' edges. *)

type report = {
  findings : Finding.t list;  (** sorted; waived included *)
  units : int;
  errors : (string * string) list;  (** unreadable/unparsable inputs *)
}

val clean : report -> bool
(** No non-waived findings. *)

val over_paths : string list -> report
(** Parse each path ({!Source.load}) and {!run} the analyzer; loading
    failures are collected, not fatal. *)
