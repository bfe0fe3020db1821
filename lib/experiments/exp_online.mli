(** Online dynamic-β scheduling vs the offline approximation.

    Same staggered-submission scenarios as {!Exp_arrivals} (Poisson
    arrivals, identical seeds), each solved two ways:

    - {e offline} — the approximation of {!Exp_arrivals}: β is computed
      once over the {e full} submission set, which a real online
      scheduler could not know, and the mapper sees all release dates
      upfront;
    - {e online} — {!Mcs_online.Engine}: β recomputed over the active
      set at each arrival and departure, unstarted tasks remapped,
      running tasks pinned.

    Both sets of schedules are replayed through the fluid network model
    ({!Mcs_sim.Replay}), so the comparison is on simulated response
    times. Unfairness follows the paper (slowdown dispersion against
    the dedicated-platform baseline); the relative makespan normalises
    each global makespan by the best achieved on the scenario across
    every (strategy, mode) pair. *)

type mode = Offline | Online

type point = {
  strategy : Mcs_sched.Strategy.t;
  mode : mode;
  count : int;
  unfairness : float;
  relative_makespan : float;
}

val compute : ?runs:int -> ?counts:int list -> unit -> point list
(** Defaults match {!Exp_arrivals}: its seed and release streams, the
    paper's counts. *)

val table : ?runs:int -> unit -> Mcs_util.Table.t
