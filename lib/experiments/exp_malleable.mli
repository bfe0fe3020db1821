(** Malleable vs moldable execution under burst load (experiment X9).

    The same burst-submission scenarios run twice through the online
    engine: once purely {e moldable} (widths fixed at start, the
    baseline engine) and once {e malleable} under a
    {!Mcs_sched.Malleability} model (quantum 30 s, redistribution cost
    0.05 s per moved processor) whose thresholds shrink running tasks
    when a burst spikes the active set and grow them when the system
    drains. Optionally a moderate fault level (MTTF 1500 s, 5%
    transient failures) is layered on top, where resizes interleave
    with kills and retries.

    Reported per (mode, level): the paper's unfairness, the global
    response time normalised by the best across all pairs, the mean
    number of resizes actually executed, and the fraction of scenarios
    in which the mode achieved the strictly better makespan than its
    rival at the same level. Every run is audited (online rules per
    generation, then the execution audit {!Mcs_check.Exec_check}:
    FAULT001-003 and MAL001-003 over every attempt, moldable runs
    included); a violation raises instead of skewing the numbers. *)

type point = {
  mode : string;  (** ["moldable"] or ["malleable"] *)
  level : string;  (** fault level: ["none"] or ["moderate"] *)
  unfairness : float;
  relative_makespan : float;
  resizes : float;  (** mean resize operations per run *)
  win_rate : float;
      (** fraction of scenarios with the strictly best makespan at this
          level *)
}

val compute : ?runs:int -> ?count:int -> unit -> point list
(** Defaults: 6 applications in bursts of three every 150 s, [runs] as
    in {!Sweep.resolve_runs}. *)

val table : ?runs:int -> unit -> Mcs_util.Table.t
