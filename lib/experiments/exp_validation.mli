(** Model validation: the mapper plans with static redistribution
    estimates; the discrete-event replay re-times communications under
    max-min link contention. This experiment quantifies the gap between
    estimated and simulated makespans per application family and
    platform — small relative errors justify using the simulated values
    throughout the evaluation. *)

type stats = {
  family : Workload.family;
  platform : string;
  runs : int;
  mean_rel_error : float;  (** mean of (sim − est)/est over applications *)
  max_rel_error : float;
}

val compute : ?runs:int -> unit -> stats list
(** Six applications per scenario, [runs] per (family, platform). *)

val table : ?runs:int -> unit -> Mcs_util.Table.t
