(** Figures 3, 4 and 5: unfairness and average relative makespan of the
    resource-constraint determination strategies, as a function of the
    number of concurrent PTGs, for one application family.

    For each scenario, every strategy is run on the same applications;
    the relative makespan divides each strategy's global completion time
    by the best one achieved on that scenario. Reported values average
    over all scenarios of a point (runs × 4 platforms). *)

type point = {
  count : int;
  strategy : Mcs_sched.Strategy.t;
  unfairness : float;
  relative_makespan : float;
  avg_makespan : float;  (** seconds, not normalised *)
}

val compute :
  ?runs:int ->
  ?counts:int list ->
  family:Workload.family ->
  strategies:Mcs_sched.Strategy.t list ->
  unit ->
  point list
(** Defaults: [runs] as in {!Sweep.resolve_runs}, the paper's counts. *)

val tables :
  family:Workload.family -> point list -> Mcs_util.Table.t list
(** Two tables (unfairness, average relative makespan): one row per
    strategy, one column per PTG count — the series of the paper's
    figures. *)

val figure3 : ?runs:int -> unit -> Mcs_util.Table.t list
(** Random PTGs, eight strategies. *)

val figure4 : ?runs:int -> unit -> Mcs_util.Table.t list
(** FFT PTGs, eight strategies (WPS-width uses the FFT-tuned µ = 0.3,
    as retained in Section 7). *)

val figure5 : ?runs:int -> unit -> Mcs_util.Table.t list
(** Strassen PTGs, six strategies (width-based ones are identical to ES
    on fixed-shape graphs). *)
