(** Seeded fault processes for the online engine.

    Two independent perturbations, both fully determined by one integer
    seed so a faulted run is reproducible bit-for-bit:

    - {b processor outages}: every failure unit (a processor, or a whole
      cluster) alternates exponentially-distributed up-times (mean
      [mttf]) and down-times (mean [mttr]), the classical
      failure/repair renewal process. Outages beginning before
      [horizon] are materialised as [(down_at, up_at)] intervals; every
      outage carries its own recovery, even when the recovery lands past
      the horizon, so a blackout is always transient and an engine run
      always terminates.
    - {b transient task failures}: an execution attempt of a task fails
      at its very end with probability [task_fail_p] (fail-stop at
      completion — the work is lost, the processors were held for the
      full duration). The draw for attempt [a] of node [v] of
      application [j] is a pure function of [(seed, j, v, a)],
      independent of scheduling order, so rescheduling decisions cannot
      perturb the fault process they react to.

    The generator only produces data ({!scenario}); the online engine
    owns the interpretation (kills, requeues, retries, degraded β). *)

type granularity =
  | Proc  (** each processor fails independently *)
  | Cluster  (** a whole cluster fails and recovers as one unit *)

type config = {
  mttf : float;
      (** mean time to failure per unit, seconds; [infinity] disables
          outages *)
  mttr : float;  (** mean time to repair, seconds; finite positive *)
  task_fail_p : float;  (** per-attempt transient failure probability *)
  granularity : granularity;
  horizon : float;
      (** no outage {e begins} after this time (recoveries may) *)
}

val default : config
(** No faults at all: [mttf = infinity], [task_fail_p = 0.], [mttr =
    60.], [Proc] granularity, horizon 3600 s. *)

type outage = {
  procs : int array;  (** global processor ids, increasing *)
  down_at : float;
  up_at : float;  (** strictly greater than [down_at] *)
}

type scenario = {
  seed : int;
  config : config;
  outages : outage list;  (** sorted by [down_at], ties by first proc *)
}

val validate : config -> unit
(** @raise Invalid_argument under the conditions listed at
    {!generate} — exposed so the engine can reject a hand-built
    scenario before interpreting it. *)

val generate : seed:int -> Mcs_platform.Platform.t -> config -> scenario
(** Materialise the outage process of a platform. Deterministic in
    [(seed, platform, config)]; each failure unit draws from its own
    child stream, so the draw counts of different units cannot couple.
    @raise Invalid_argument on a non-positive [mttf] or [mttr], a
    non-finite [mttr], [task_fail_p] outside [0, 1], or a non-positive
    horizon. *)

val is_empty : scenario -> bool
(** No outages and a zero transient-failure probability: the engine run
    is equivalent to an un-faulted one. *)

val roll_failure : scenario -> app:int -> node:int -> attempt:int -> bool
(** Whether execution attempt [attempt] (0-based) of node [node] of
    application [app] fails transiently. Pure in its arguments (see
    above); always [false] when [task_fail_p = 0.]. *)

val down_intervals : scenario -> procs:int -> (float * float) list array
(** Per-processor down intervals, merged and sorted, over [procs]
    global processor ids — the checker's view of the outage process. *)
