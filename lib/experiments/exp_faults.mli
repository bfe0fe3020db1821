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

val table : ?runs:int -> unit -> Mcs_util.Table.t
