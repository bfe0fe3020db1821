(** Discrete-event replay of concurrent schedules.

    The mapper ({!Mcs_sched.List_mapper}) produces schedules from static
    redistribution estimates. The replay executes those scheduling
    *decisions* — processor sets and per-processor task order — inside
    the fluid network model, so transfer durations emerge from actual
    link contention, as a SimGrid simulation would:

    - a task starts once every predecessor dependency is satisfied and
      it reaches the head of the FIFO of each of its processors;
    - a dependency is satisfied at the predecessor's finish when no data
      moves (zero bytes, or same processors on the same cluster), and at
      the completion of a network flow otherwise;
    - flows start one latency after the producer finishes and progress
      at the max-min fair rate of their route.

    Computation durations reuse the schedule's Amdahl times; only
    communication timing is re-evaluated.

    A flow completes when its predicted completion fires: every
    recomputation of the rates re-predicts it, so that time is exact in
    the model and no residue of unsent bytes is compared against a
    tolerance. *)

type result = {
  makespans : float array;       (** per application: exit-node finish *)
  global_makespan : float;
  finish_times : float array array;  (** per application, per node *)
  start_times : float array array;   (** per application, per node *)
  flows_created : int;
  events_processed : int;
      (** events acted on: one finish per task, an activation and a
          completion per flow, and one release per application
          submitted after 0 *)
  updates : int;
      (** max-min rate recomputations: one per flow completion, and one
          per activation unless the next event is another activation
          at the same instant *)
}

val run :
  ?release:float array ->
  Mcs_platform.Platform.t -> Mcs_sched.Schedule.t list -> result
(** Simulate the concurrent execution of the given schedules. [release]
    gives per-application submission times: no task of application [i]
    runs before [release.(i)] (default: all 0, as in the paper).
    Each call keeps all its state to itself, so replays may run
    concurrently on several domains. Each call is one [sim.replay]
    span and adds its flows, events and solver work to the [sim.*]
    counters of {!Mcs_obs.Names}.
    @raise Invalid_argument on an empty list, a [release] whose length
    differs from the list, or a negative or non-finite release time. *)
