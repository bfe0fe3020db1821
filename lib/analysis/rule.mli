(** Registry of the concurrency-soundness rules, mirroring
    {!Mcs_check.Rule} for schedule invariants: stable codes for CI
    gating, kebab-case ids for prose, one-line contracts, and the
    serve-stack rationale each rule protects. *)

type t =
  | Lock_guarded_unlocked  (** LOCK001: guarded field touched lock-free *)
  | Lock_order_cycle  (** LOCK002: cyclic lock acquisition order *)
  | Lock_wait_outside_loop  (** LOCK003: [Condition.wait] not re-checked *)
  | Escape_captured_write  (** ESCAPE001: captured ref/field write in a
                               cross-domain closure *)
  | Escape_captured_container  (** ESCAPE002: captured container mutated
                                   in a cross-domain closure *)
  | Atom_get_set_rmw  (** ATOM001: Atomic.get+set read-modify-write *)

val all : t list
(** Registry order — the order reports and [--rules] listings use. *)

val code : t -> string
(** Stable short code ([LOCK001], [ESCAPE002], ...). *)

val id : t -> string
(** Kebab-case identifier ([guarded-field-unlocked], ...). *)

val of_id : string -> t option

val describe : t -> string
(** The invariant the rule enforces, one sentence. *)

val rationale : t -> string
(** Why the serve stack needs it — the concrete failure it prevents. *)
