(** Figure 2: evolution of unfairness and average makespan when the µ
    parameter of the WPS-work strategy sweeps from 0 (pure PS) to 1
    (pure ES), on random PTGs.

    Reproduces the calibration that led the paper to retain µ = 0.7 for
    WPS-work: unfairness decreases with µ while average makespan
    increases, with diminishing fairness returns past 0.7. *)

type point = {
  mu : float;
  count : int;
  unfairness : float;
  avg_makespan : float;  (** plain average over runs, in seconds *)
}

val compute :
  ?runs:int -> ?counts:int list -> ?mus:float list -> unit -> point list
(** Defaults: the paper's counts and µ values. *)

val tables : point list -> Mcs_util.Table.t list
(** Two tables (unfairness, average makespan): one row per PTG count,
    one column per µ. *)

val figure2 : ?runs:int -> unit -> Mcs_util.Table.t list
(** The WPS-work sweep of Figure 2. *)
