(** Fault injection across the eight β strategies (experiment X8).

    Staggered-submission scenarios like {!Exp_online}'s (six
    applications, their own seed), run through the event-driven engine
    under increasing failure intensity: a seeded {!Mcs_fault.Fault}
    scenario of processor outages (exponential failure/repair) plus
    transient end-of-task failures.
    For each level the engine kills, requeues and retries per its fault
    policy and recomputes β against the surviving capacity; reported
    are the paper's unfairness (slowdown dispersion, degenerate
    applications skipped per {!Mcs_metrics.Metrics.unfairness_of_makespans})
    and the response-time makespan normalised by the best achieved on
    the scenario across every (strategy, level) pair.

    Every reschedule generation is audited by the online invariant
    analyzer and the full execution log by the execution audit
    ({!Mcs_check.Exec_check}: FAULT001-003 and MAL001-003, the fault-free
    level included); any violation raises instead of skewing the
    numbers. *)

type point = {
  strategy : Mcs_sched.Strategy.t;
  level : string;  (** failure level, see {!levels} *)
  unfairness : float;
  relative_makespan : float;
  kills : float;  (** mean outage kills per run *)
  retries : float;  (** mean transient failures per run *)
}

val levels : (string * Mcs_fault.Fault.config option) list
(** none (fault-free baseline), mild, moderate, severe — MTTF 3000, 1500
    and 750 s with transient failure probabilities 2, 5 and 10%. *)

val strategies : Mcs_sched.Strategy.t list
(** {!Mcs_sched.Strategy.paper_eight}. *)

val compute : ?runs:int -> unit -> point list
(** Six applications per scenario, submitted as in {!Sweep.releases}. *)

val table : ?runs:int -> unit -> Mcs_util.Table.t
