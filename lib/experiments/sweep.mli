(** The paper's evaluation protocol (Section 7), written once for every
    experiment table.

    For each number of concurrent PTGs (2–10), [runs] random application
    combinations (25 in the paper) are drawn and run on each of the four
    Grid'5000 subsets — 100 scenarios per point. Every arm of an
    experiment (a strategy, a pipeline configuration, a strategy × mode or
    × fault level pair) runs on the same scenario; each arm's global
    makespan is divided by the best one achieved on that scenario, and
    every metric is averaged over the point's scenarios. Scenarios are
    seeded deterministically from (seed, count, platform, run), so every
    table is reproducible run-to-run and independent of evaluation
    order. *)

val resolve_runs : int option -> int
(** The combinations per (count, platform) point: the explicit value,
    else the [MCS_RUNS] environment variable, else 25 (the paper's
    setting).
    @raise Invalid_argument naming the value when the explicit one or
    [MCS_RUNS] is not a positive integer. *)

val scenarios :
  family:Workload.family ->
  count:int ->
  runs:int ->
  seed:int ->
  (Mcs_platform.Platform.t * Mcs_ptg.Ptg.t list) list
(** All (platform, applications) scenarios for one point: [runs]
    combinations × the four Grid'5000 subsets. *)

val releases : seed:int -> count:int -> int -> float array
(** [releases ~seed ~count i]: the Poisson submission times (mean 30 s)
    of scenario [i] of the point, deterministic in (seed, count, i). *)

type cell = {
  unfairness : float;
  makespan : float;  (** the arm's global makespan on the scenario *)
  extras : float array;
      (** the experiment's own measures, of one length for every arm *)
}
(** One arm's result on one scenario. *)

val of_runner : Runner.run_metrics -> cell
(** A {!Runner.evaluate} result; its one extra is the average
    per-application makespan. *)

type mean = {
  unfairness : float;
  makespan : float;  (** mean global makespan, in seconds *)
  relative_makespan : float;
      (** mean of the global makespan over the scenario's best *)
  extras : float array;
}
(** One arm's averages over a point's scenarios. *)

val compare :
  ?runs:int ->
  family:Workload.family ->
  count:int ->
  seed:int ->
  (int -> Mcs_platform.Platform.t -> Mcs_ptg.Ptg.t list -> cell list) ->
  mean list
(** [compare ~family ~count ~seed arms] runs [arms i platform ptgs] on
    every scenario [i] of the point, in parallel, and returns one mean
    per arm, in the order [arms] returns its cells. Means are
    {!Mcs_util.Floatx.mean} over the scenarios in scenario order.
    [runs] as in {!resolve_runs}. *)

val pair : float -> float -> string
(** The ["unfairness / relative makespan"] cell, two decimals each. *)

val grid :
  title:string ->
  corner:string ->
  row:('p -> string) ->
  column:('p -> string) ->
  cell:('p -> string) ->
  'p list ->
  Mcs_util.Table.t
(** The points pivoted into a table: one row per [row] label and one
    column per [column] label, each in order of first appearance, under
    the header [corner :: columns]; a cell is [cell] of the point with
    that row and column label, ["-"] where there is none. *)
