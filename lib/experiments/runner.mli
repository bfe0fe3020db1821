(** Execution of one scenario (a platform plus a set of concurrent
    applications) under several strategies, with the dedicated-platform
    baselines computed once and shared.

    Makespans are, as in the paper, taken from the discrete-event
    simulation of the produced schedules. A dedicated-platform baseline
    may instead take the mapper's estimate ([timing = Estimated]): the
    fault and malleability experiments compare it with engine runs,
    which report estimated times too. *)

type timing = Estimated | Simulated

type run_metrics = {
  strategy : Mcs_sched.Strategy.t;
  makespans : float array;   (** per application, concurrent run *)
  slowdowns : float array;   (** per application, M_own/M_multi *)
  unfairness : float;
  global_makespan : float;   (** completion of the whole run *)
  avg_makespan : float;      (** mean of the per-application makespans *)
}

val makespan_alone :
  ?timing:timing ->
  Mcs_platform.Platform.t ->
  Mcs_ptg.Ptg.t ->
  float
(** Dedicated-platform makespan M_own of one application (default
    timing: [Simulated]). *)

val evaluate :
  ?config:Mcs_sched.Pipeline.config ->
  ?release:float array ->
  Mcs_platform.Platform.t ->
  Mcs_ptg.Ptg.t list ->
  Mcs_sched.Strategy.t list ->
  run_metrics list
(** Evaluate every strategy on the scenario, with simulated makespans.
    The M_own baselines are computed once. Every
    allocation of a PTG — its baseline and one per strategy — goes
    through the same trajectory cache, so later β values replay what
    earlier ones recorded; results are those of scratch allocation. With
    [release], applications are submitted at the given times and each
    per-application makespan is its response time (completion −
    submission).

    Mapping and replay depend on a strategy only through its allocation
    vector, so each distinct vector is mapped and replayed once per
    call: a strategy whose allocations equal an earlier one's, node by
    node, takes its schedules and makespans (on Strassen, PS-width and
    WPS-width repeat ES, and PS-work repeats PS-cp). The metrics are
    bit-identical to one call per strategy, and each result has arrays
    of its own.

    The invariant analyzer audits every strategy's schedule set, with
    that strategy's β and allocations, and raises
    {!Mcs_check.Check.Violation} on any error-severity diagnostic —
    metrics are never computed from an illegal schedule. *)
