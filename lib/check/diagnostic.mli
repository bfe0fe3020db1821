(** Structured analyzer findings.

    A diagnostic pins one rule violation to its location in the
    artifact: which application, which DAG node, which processor, which
    time window — whatever subset applies — plus a human message. The
    analyzer never returns a bare boolean: callers decide what to do
    from the severity ([mcs_check] exits non-zero on errors, the
    experiment runner raises, tests assert on rule ids). *)

type severity = Error | Warning | Info

type t = {
  rule : Rule.t;
  severity : severity;
  app : int option;        (** application index in the analyzed set *)
  node : int option;       (** DAG node *)
  proc : int option;       (** global processor id *)
  window : (float * float) option;  (** offending time interval *)
  message : string;
}

val error :
  ?app:int -> ?node:int -> ?proc:int -> ?window:float * float ->
  Rule.t -> ('a, unit, string, t) format4 -> 'a

val warning :
  ?app:int -> ?node:int -> ?proc:int -> ?window:float * float ->
  Rule.t -> ('a, unit, string, t) format4 -> 'a

val info :
  ?app:int -> ?node:int -> ?proc:int -> ?window:float * float ->
  Rule.t -> ('a, unit, string, t) format4 -> 'a

val to_string : t -> string
(** ["ERROR MAP004 map-overlap [app 1, node 3, proc 17, 4.2..5.1]: ..."] *)

val pp : Format.formatter -> t -> unit

val has_errors : t list -> bool
val errors : t list -> t list

val compare : t -> t -> int
(** Total deterministic order: severity rank, then rule code, then
    location fields ([app], [node], [proc], [window]), then message. *)

val sort : t list -> t list
(** Sorted under {!compare}: errors first, then warnings, then infos,
    same-severity diagnostics in a stable location order — CI output is
    byte-diffable across runs. *)

val summary : t list -> string
(** ["2 errors, 1 warning"] / ["clean"]. *)
