(** Event-driven online scheduler (the paper's Section 8 future work).

    The engine runs a discrete-event loop in virtual time over six
    event kinds: application {e arrivals}, {e task finishes},
    application {e departures}, and — under fault injection —
    {e transient task failures}, processor {e outages} and
    {e recoveries}. On each arrival — and, per {!Policy.t}, on
    departures and task finishes — the resource constraints β are
    recomputed with the chosen strategy over the set of
    {e currently active} applications only (arrived, not completed: an
    online scheduler cannot know the future submission stream), each
    active application is re-allocated under its new β, and every
    {e unstarted} task is remapped by the concurrent list mapper onto
    the partially-occupied platform. Tasks that have started are pinned:
    their placements are frozen and their processors stay busy until
    their estimated finish ({!Mcs_sched.List_mapper.map}'s pinned
    placements and [avail] profile). Departures free processors, so with
    [reschedule_on_departure] the survivors' unstarted tasks backfill
    onto the released share. Each session maps through one
    {!Mcs_sched.List_mapper.session}, built on its first reschedule, so
    a reschedule reuses the previous generation's ranks, bottom levels,
    availability index, ready-heap buffers and scratch; a departure
    drops that application's share of it. A reschedule pins in place:
    one pass over the active applications' placement arrays revokes
    the unstarted placements and fills the session's availability
    buffer, and {!Mcs_sched.List_mapper.map} then writes the new
    placements into those same arrays. A map that raises leaves them
    partly filled, and the exception ends the run.

    {b Fault injection} ([?faults]) interprets a {!Mcs_fault.Fault}
    scenario:

    - a processor {e outage} kills every attempt running on a failed
      processor (the elapsed work is lost; the kill is recorded as an
      attempt ending at the outage instant) and triggers a reschedule
      on the {e degraded} platform: the reference cluster is resized
      to the surviving aggregate GFlop/s
      ({!Mcs_sched.Reference_cluster.degrade}), allocations are capped
      by per-cluster surviving processor counts, and the mapper skips
      dead processors. Killed tasks are requeued unconditionally — a
      kill is not a retry. If {e no} processor survives, the engine
      pins (every unstarted placement is revoked), re-announces what
      still runs and idles until a recovery;
    - a {e recovery} restores the processors and reschedules to exploit
      the recovered capacity (a full mask schedules exactly as the
      fault-free engine);
    - a {e transient failure} costs the attempt's full duration, counts
      one retry, and delays the task's restart by the backoff of
      {!Policy.t}'s [faults] policy ({!Policy.retry_delay}). After [max_retries] failures
      the next attempt is carried through (bounded retry: the run
      always terminates). Outcomes are pre-rolled per attempt from the
      scenario seed, so they are independent of scheduling order; the
      state memoises each attempt's verdict.

    {b Malleable execution} ({!Policy.t}'s [malleability]) lets the
    engine change the width of a {e running} task at the legal resize
    points of a {!Mcs_sched.Malleability} model: each generation's
    announcements arm every running real task's next grid point as a
    resize opportunity; when reached, the target width is decided by
    the model's thresholds ({!Mcs_sched.Malleability.target_width}:
    shrink under an arrival spike, grow when the system drains) and
    clamped to the processors idle in the task's cluster at that
    instant. A resize closes the current segment the way a failure or
    a kill closes its attempt — a {!Mcs_check.Exec_check.Resized}
    execution record ending at the resize — charges a redistribution
    overhead proportional to the processors moved, re-prices the
    remaining work by Amdahl at the new width, and forces a reschedule
    so successors re-price and the next opportunity is planned. With
    [malleability = None] — the default — no opportunity is ever
    planned and the engine is bit-identical to the non-malleable one,
    event log included.

    {b The execution audit.} Every attempt of every real task is
    recorded ({!result}'s [executions]). A moldable attempt is a resize
    chain of one segment, so with [?check] set {!result} audits the
    whole log in one pass of {!Mcs_check.Exec_check.check}
    (FAULT001-003, MAL001-003) in every mode: plain, faulted, malleable
    or both.

    A PTG whose unique sink is a {e real} task doubles as its exit
    node: the engine announces both its task finish (it records an
    execution attempt and can fail transiently like any other task) and
    the departure at the same instant — the queue's kind order delivers
    the finish first.

    Execution follows the mapper's own time estimates (the engine is
    both scheduler and clock); the resulting schedules are ordinary
    {!Mcs_sched.Schedule.t} values that can be validated and replayed
    through the fluid network model ({!Mcs_sim.Replay}) for simulated
    timings, exactly like offline schedules.

    With both trigger flags of {!Policy.t} off (the ["static"] registry
    policy) and every arrival at time 0 the engine
    reschedules exactly once over the full set, and its schedules
    coincide, placement for placement, with
    {!Mcs_sched.Pipeline.schedule_concurrent}. Running with an
    {e empty} fault scenario (no outages, zero failure probability) is
    observationally identical to running with no scenario at all. *)

type stats = {
  events_processed : int;  (** events handled by the loop *)
  events_pushed : int;
      (** total queue insertions, revoked announcements included *)
  reschedules : int;
  remapped_tasks : int;    (** placements recomputed over the whole run *)
  kills : int;             (** attempts killed by processor outages *)
  task_failures : int;     (** transient failures observed *)
  fault_events : int;      (** outage/recovery events processed *)
  alloc_hits : int;        (** allocation-cache exact hits (same β) *)
  alloc_rescales : int;    (** cache hits served by β-rescale replay *)
  alloc_misses : int;      (** scratch allocation runs (new cache key) *)
  resizes : int;           (** malleable grow/shrink operations executed *)
}

type result = {
  schedules : Mcs_sched.Schedule.t list;  (** in submission order *)
  betas : float array;        (** final β of each application *)
  completions : float array;  (** virtual completion times *)
  responses : float array;    (** completion − release *)
  executions : Mcs_check.Exec_check.execution list;
      (** every attempt of every real task, chronological *)
  stats : stats;
}

type session
(** A re-entrant engine instance. {!run} is [create] + [advance] +
    [result] over a fixed submission list; a {e session} additionally
    absorbs submissions over time ({!submit}) and can be stepped up to
    a virtual-time bound ({!advance} with [~upto]) — the building block
    of the sharded serving layer ({!Mcs_serve.Service}), where each
    shard owns one session on its own sub-platform and only steps it up
    to the watermark its router has proven safe. *)

val create :
  ?log:(Log.event -> unit) ->
  ?check:(Mcs_check.Diagnostic.t list -> unit) ->
  ?faults:Mcs_fault.Fault.scenario ->
  policy:Policy.t ->
  Mcs_platform.Platform.t ->
  (Mcs_ptg.Ptg.t * float) list ->
  session
(** Fresh session over an initial (possibly empty) submission list:
    arrival events are queued for every listed application, outage and
    recovery events for the fault scenario, and nothing is processed
    yet. [policy] is the session's active policy.
    @raise Invalid_argument on an ill-formed release time or fault
    scenario. *)

val policy : session -> Policy.t
(** The active policy. *)

val set_policy : session -> Policy.t -> unit
(** Swap the active policy at the session's current virtual time and
    remap at once under it, logged with trigger ["policy_swap"] — the
    live half of an adopted {!what_if}. The engine reads the new policy
    for every subsequent trigger, backoff, shrink and allocation
    decision. The remap opens a new
    generation, so no resize point armed under the old policy
    survives the swap.
    @raise Invalid_argument if the new policy's [malleability] or
    [faults.max_retries] differs from the active one's: {!result}'s
    execution audit judges the whole run by them. {!Policy.of_name}
    keeps both. *)

val alloc_cache_stats : session -> int * int * int
(** Summed allocation-cache [(hits, rescales, misses)] across all
    applications at this instant — the live view of the [alloc_*]
    fields of {!stats}, observable mid-run (the departure-scoped cache
    invalidation tests difference it around a departure). *)

val submit : session -> Mcs_ptg.Ptg.t -> release:float -> at:float -> int
(** [submit s ptg ~release ~at] appends one application and queues its
    arrival at virtual time [at] (≥ [release]; the gap is admission
    latency, e.g. the serving layer's β-batching window). Returns the
    application's index in this session. Safe between any two
    {!advance} calls.
    @raise Invalid_argument if [at < release] or [at] lies in the
    already-processed past ([at < now]). *)

val advance : ?upto:float -> session -> unit
(** Process queued events in virtual-time order: all of them (no
    [upto]), or exactly those strictly before [upto]. The bound lets a
    shard stop ahead of submissions it has not yet been shown — calling
    [advance ~upto:w] is safe when every future {!submit} is guaranteed
    [at ≥ w]. Idempotent at a fixed bound. *)

val result : session -> result
(** Snapshot the per-application outcome arrays (submission order) and
    engine counters; with [check] set, first passes it one batch from
    {!Mcs_check.Exec_check.check}: the post-mortem audit of the
    execution log (FAULT001-003, MAL001-003) against the fault
    scenario's down intervals (none without [faults]), the policy's
    retry bound and its malleability model. Meaningful once the session
    is quiescent (every application completed).
    @raise Invalid_argument if some application was never fully
    scheduled. *)

val now : session -> float
(** Virtual time of the last processed event (0 initially). *)

val active_count : session -> int
(** Applications arrived and not yet completed (O(1)). *)

val peak_active : session -> int
(** High-water mark of {!active_count} over the session's lifetime —
    the per-shard concurrency gauge reported by the serving layer. *)

val in_service : session -> int
(** Applications submitted and not yet completed (arrived or still
    queued) — the load measure behind the serving layer's shedding. *)

val pending_events : session -> int
(** Queued events: every pending arrival, outage and recovery plus the
    current schedule generation's announcements. A reschedule drops the
    previous generation's at once, so the count stays bounded by the
    live work. *)

type snapshot
(** What a session was given and every call that changed it since:
    the fault scenario, policy, platform and application list of
    {!create}, then each {!submit} (the PTG, its release and its
    admission instant), {!advance} (its bound) and {!set_policy} (the
    policy), in order. Read-only calls record nothing, and two
    advances with no call between them share one entry. A snapshot
    holds no mutable engine structure: PTGs, platforms, policies and
    fault scenarios are immutable, and the failure outcomes a scenario
    rolls are a pure function of its seed.

    {b Bit-identity bar.} [restore (snapshot s)] continued to
    quiescence emits the exact event log the uninterrupted [s] would
    have emitted — float for float, tiebreak for tiebreak, fault
    scenarios included. The snapshot/restore qcheck property and the
    CI checkpoint job enforce this. *)

val snapshot : session -> snapshot
(** Capture the session mid-run, in O(1): the snapshot shares the
    session's record of calls, so it is immune to the session's
    further progress and can seed any number of restores. *)

val restore :
  ?log:(Log.event -> unit) ->
  ?check:(Mcs_check.Diagnostic.t list -> unit) ->
  snapshot ->
  session
(** A fresh live session at the snapshot's instant: {!create} over the
    snapshot's origin, then its calls repeated in order with no sinks
    attached, then [log] and [check] attached (a restored shard wires
    its own). The engine is deterministic, so the replay rebuilds
    everything the calls left behind: placements, allocation caches
    and their statistics, the queue's insertion sequence, memoised
    failure verdicts, armed resizes and the gauges. It
    costs the session's work so far, and the {!Mcs_obs.Obs} counters
    (a [--profile]) count the replayed work too; logs, results and
    {!stats} do not change. The restored session records the calls it
    repeated, so a snapshot of it restores the same run. *)

val audit : session -> Mcs_check.Diagnostic.t list
(** Run the static rule sets (DAG, ALLOC incl. the SCRAP-MAX level
    budgets, MAP, and the ON pinning/β/time-travel rules) over the
    session's {e current} scheduling state — each active application's
    β, last reference allocation and full placement set at virtual time
    [now]. Empty when clean, when nothing is active, or when some
    active application has revoked placements (mid-blackout there is no
    generation to audit). Meaningful on any quiescent-between-events
    session; the snapshot/restore tests audit restored sessions with
    it. Most useful with [reschedule_on_departure] on, which keeps β
    current whenever the active set changes. *)

type speculation = {
  adopted : bool;  (** the candidate won and is now the live policy *)
  baseline_makespan : float;  (** incumbent policy, clone run *)
  candidate_makespan : float;  (** candidate policy, clone run *)
}

val what_if : session -> Policy.t -> speculation
(** Speculative rescheduling: clone the session twice
    ({!snapshot}/{!restore}, so each clone replays the session's
    prefix), run the incumbent policy and the
    candidate (the latter with an immediate ["policy_swap"] remap) to
    quiescence over everything currently queued, and compare makespans
    (latest completion). The candidate is adopted on the live session —
    {!set_policy} with an immediate remap — {e only} if it strictly
    improves the makespan; otherwise the live session is left exactly
    as it was. The clones are silent and isolated: no log, no checker,
    no effect on the live run beyond the adoption decision.
    @raise Invalid_argument as {!set_policy} does. *)

val run :
  ?log:(Log.event -> unit) ->
  ?check:(Mcs_check.Diagnostic.t list -> unit) ->
  ?faults:Mcs_fault.Fault.scenario ->
  policy:Policy.t ->
  Mcs_platform.Platform.t ->
  (Mcs_ptg.Ptg.t * float) list ->
  result
(** [run ~policy platform apps] executes the submission stream [apps]
    (each PTG paired with its release time, any order of times) to
    completion. [log] receives every event in virtual-time order.

    [check] receives, after every reschedule, the diagnostics of
    {!Mcs_check.Online_check.analyze} over a snapshot of that
    reschedule — pin stability, β-over-active-set, no time travel, plus
    the DAG, allocation and mapping rule sets of
    {!Mcs_check.Check.analyze} — and one final batch from
    {!Mcs_check.Exec_check.check} auditing the complete execution log
    (FAULT001-003, MAL001-003; see {!result}). An empty list means the
    batch is clean. Pass
    [fun d -> Mcs_check.Check.fail_on_error d] to turn any violation
    into an exception.
    @raise Invalid_argument on an empty list, an ill-formed release
    time, or an ill-formed fault scenario. *)
