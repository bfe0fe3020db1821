(** Staggered submissions — the paper's future-work scenario
    (Section 8): applications arrive over time instead of together.

    Submission times are drawn from a Poisson process (mean
    inter-arrival 30 s, a fraction of the typical dedicated makespan),
    so applications genuinely overlap. Per-application makespans are
    response times (completion − submission) and the slowdown baseline
    M_own stays the dedicated-platform run, as in the paper. β is
    computed over the full submission set (an offline approximation of
    the dynamic recomputation the paper leaves open — see DESIGN.md).
    {!Exp_online} runs the same scenarios through the event-driven
    engine of {!Mcs_online.Engine}, which recomputes β over the active
    applications at each arrival/departure and so removes this
    approximation; its table carries both modes side by side. *)

type point = {
  strategy : Mcs_sched.Strategy.t;
  count : int;
  unfairness : float;
  relative_makespan : float;
}

val seed : int
(** The scenario seed, which {!Exp_online} shares. *)

val compute : ?runs:int -> ?counts:int list -> unit -> point list
(** Defaults: the paper's counts; submissions as in {!Sweep.releases}. *)

val table : ?runs:int -> unit -> Mcs_util.Table.t
