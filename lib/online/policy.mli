(** Rescheduling policy of the online engine — the one policy object a
    session holds, swappable mid-run ({!Engine.set_policy}).

    Every arrival recomputes β over the currently-active applications
    and remaps their unstarted tasks — that part is not optional, it is
    the point of the engine. So are transient failures, processor
    outages and recoveries (the killed or failed work must be remapped)
    and resizes (successors must re-price). The policy decides what
    else triggers a recomputation:

    - [reschedule_on_departure] — when an application completes, its β
      share is redistributed among the survivors and their unstarted
      tasks are remapped onto the freed processors (backfilling). On in
      {!make}; the registry's ["static"] turns it off, which makes the
      t=0-arrivals case coincide exactly with the offline pipeline (see
      {!Engine.run}).
    - [reschedule_on_task_finish] — additionally remap after every task
      completion. Much more aggressive (O(tasks) reschedules per run);
      off by default, exposed for experimentation.

    Allocation and mapping always run the paper's configuration,
    {!Mcs_sched.Pipeline.default_config}: SCRAP-MAX, then the ready-list
    mapper with packing.

    [faults] governs recovery under fault injection (it is inert when
    the engine runs without a fault scenario). A task killed by a
    processor outage is always requeued — mandatory, not a retry. A
    {e transient} failure consumes one retry: after [max_retries]
    transient failures the next attempt is carried through (bounded
    retry — the run always terminates; an operator would eventually
    blacklist the task or succeed). Each retry waits a backoff
    ({!retry_delay}) before the task may start again, and
    [shrink_on_retry] halves the task's allocation per failure (floor
    1) — reusing the packing idea: a smaller allocation restarts
    earlier on a degraded platform.

    [name] labels the policy in reports: the engine counts each
    policy's work under [policy.<name>.reschedules] and
    [policy.<name>.remapped], so an A/B swap reports how much each
    policy did. {!make} names its result ["default"]; {!of_name} names
    a registry policy after itself. *)

type backoff =
  | Exponential  (** retry [k] waits [base·2^(k-1)] *)
  | Linear  (** retry [k] waits [base·k] *)

type fault_policy = {
  max_retries : int;       (** transient failures tolerated per task *)
  backoff_base : float;    (** seconds *)
  backoff : backoff;
  shrink_on_retry : bool;  (** halve the allocation per failure *)
}

val default_faults : fault_policy
(** 3 retries, 5 s exponential backoff base, no shrinking. *)

type t = {
  name : string;
  strategy : Mcs_sched.Strategy.t;
  reschedule_on_departure : bool;
  reschedule_on_task_finish : bool;
  faults : fault_policy;
  malleability : Mcs_sched.Malleability.t option;
      (** when [Some m], running tasks become {e malleable}: the engine
          may preempt them at [m]'s legal resize points and continue
          them at {!Mcs_sched.Malleability.target_width}, charging the
          redistribution cost and re-pricing the remaining work (see
          {!Engine}). [None] (the default) is the paper's moldable
          model and is bit-identical to the pre-malleability engine. *)
}

val make :
  ?faults:fault_policy ->
  ?reschedule_on_task_finish:bool ->
  ?malleability:Mcs_sched.Malleability.t ->
  Mcs_sched.Strategy.t -> t
(** Dynamic-β policy named ["default"]: it reschedules on departures,
    and on task finishes when [reschedule_on_task_finish] (default
    [false]) is set. [malleability] (default [None], i.e. moldable
    tasks) is validated with {!Mcs_sched.Malleability.validate}.
    @raise Invalid_argument on a negative [max_retries], an ill-formed
    [backoff_base] (negative, NaN, or so large that the longest
    exponential backoff [backoff_base·2^(max_retries−1)] is not
    finite), or an ill-formed malleability model. *)

val retry_delay : fault_policy -> failures:int -> float
(** Seconds a task waits before retry number [failures] (≥ 1). *)

val names : string list
(** Registry names accepted by {!of_name} — what the CLIs advertise for
    [--policy]. *)

val of_name : string -> base:t -> t
(** The registry policy [name] over [base], named [name]. Strategy,
    fault budget and malleability carry over from [base]; the name
    overrides at most one group of fields: ["default"] (none: [base]'s
    own flags), ["static"] (both trigger flags off), ["eager"] (both
    on), ["linear-backoff"] ([backoff] is [Linear]) and
    ["shrink-retry"] ([shrink_on_retry] on).
    @raise Invalid_argument on an unknown name. *)
