(** Mutable world state of the online engine.

    The state tracks, at the engine's virtual time [now], every
    submitted application with its lifecycle status, current β, and
    current schedule (a placement per DAG node, [None] until the
    application is first scheduled). The split between {e pinned} and
    {e remappable} placements is purely temporal: a placement whose
    start is at or before [now] has begun (or finished) and can no
    longer be revoked; everything strictly in the future is up for
    rescheduling.

    Fault injection adds a second layer: a per-processor liveness mask
    ([proc_up]), per-task retry bookkeeping ([failures], [retry_at]),
    and a {!Mcs_util.Timeline} {e ledger} mirroring every started
    placement so that outage recovery exercises the real
    release/re-reserve path ([committed] marks placements currently
    reserved in the ledger). All of it is inert — never read, never
    written — when the engine runs without a fault scenario. *)

type status = Pending | Active | Completed

type app = {
  index : int;  (** position in the submission list *)
  ptg : Mcs_ptg.Ptg.t;
  release : float;  (** submission time *)
  mutable status : status;
  mutable beta : float;  (** last β assigned; [nan] before arrival *)
  mutable placements : Mcs_sched.Schedule.placement option array;
  mutable completion : float;  (** exit finish time; [nan] until done *)
  failures : int array;  (** transient failures per node, cumulative *)
  retry_at : float array;  (** backoff floor: node may not start before *)
  committed : bool array;  (** placement currently reserved in the ledger *)
  progress : float array;
      (** fraction of each task's total work completed by the segments
          {e before} the current one — 0 everywhere unless the task was
          resized (malleable runs only); reset to 0 when an attempt is
          killed or fails transiently (the restart loses the work) *)
  seg_overhead : float array;
      (** redistribution overhead charged at the start of each task's
          {e current} segment, seconds — 0 unless the segment follows a
          resize; the current segment makes work progress only after
          [start + seg_overhead] *)
  mutable last_alloc : int array;
      (** reference allocation of the last reschedule that covered this
          application ([[||]] before the first) — what the mid-run
          {!Engine.audit} hands the ALLOC rules. Owned by the state:
          {!Mcs_sched.Pipeline.prepare} returns a fresh array each
          generation *)
  alloc_cache : Mcs_sched.Allocation.cache;
      (** per-application allocation-trajectory cache, passed to
          {!Mcs_sched.Pipeline.prepare} on every reschedule that
          covers the application; released on departure. Kills,
          outages and resizes leave it alone: an allocation is a
          function of the PTG, β and the cap, never of placements *)
}

type t = {
  platform : Mcs_platform.Platform.t;
  ref_cluster : Mcs_sched.Reference_cluster.t;
  mutable apps : app array;  (** in submission order; grows on {!add_app} *)
  mutable now : float;
  mutable reschedules : int;
  mutable remapped_tasks : int;  (** placements recomputed, cumulative *)
  mutable active_apps : int;  (** arrived, not completed — O(1) gauge *)
  mutable completed_apps : int;
  mutable peak_active : int;  (** high-water mark of [active_apps] *)
  arena : Mcs_sched.Alloc_arena.t;
      (** scratch buffers for the allocation loop, reused across every
          reschedule of this engine — single-owner, so one engine (and
          hence one serving shard) never shares it across domains *)
  proc_up : bool array;  (** liveness per global processor id *)
  ledger : Mcs_util.Timeline.t;  (** started placements, fault runs only *)
  mutable executions : Mcs_check.Fault_check.execution list;
      (** every attempt of every real task, most recent first *)
  mutable kills : int;  (** attempts killed by processor outages *)
  mutable task_failures : int;  (** transient failures observed *)
  mutable fault_events : int;  (** outage/recovery events processed *)
  mutable resizes : int;  (** malleability resizes executed *)
}

val create : Mcs_platform.Platform.t -> (Mcs_ptg.Ptg.t * float) list -> t
(** One state per engine run; applications keep their list order (the
    list may be empty — a serving session starts blank and grows by
    {!add_app}). All processors start up, all counters at zero.
    @raise Invalid_argument on a negative/non-finite release time. *)

val copy : t -> t
(** Deep, self-contained copy — the substance of {!Engine.snapshot}.
    Every mutable structure (placements, fault bookkeeping, the
    per-application allocation caches, the ledger, the liveness mask)
    is cloned; PTGs are shared (immutable, and the cache binding is by
    physical equality); the arena is fresh (pure per-call scratch); the
    executions list shares its persistent spine. The [active_apps] /
    [completed_apps] / [peak_active] gauges are {e re-derived} from the
    copied statuses rather than inherited, so a copy taken from a
    drifted source (a crashed serving domain's stale counters) is
    self-consistent; on a consistent source this reproduces the gauges
    exactly, keeping the copy bit-identical. *)

val add_app : t -> Mcs_ptg.Ptg.t -> release:float -> app
(** Append one application (index = current count, status [Pending]).
    Used by the re-entrant session API to absorb streamed submissions.
    @raise Invalid_argument on a negative/non-finite release time. *)

val active : t -> app list
(** Applications that have arrived and not yet completed, in submission
    order — the set β is recomputed over. *)

val pinned_of : t -> app -> Mcs_sched.Schedule.placement option array
(** Placements of [app] that have started (start ≤ now): the frozen
    part handed to {!Mcs_sched.List_mapper.run} as [pinned]. All-[None]
    for an application that has never been scheduled. *)

val proc_avail : t -> float array
(** Per-processor availability: [max now (finish of running work)] —
    the [avail] profile for partial rescheduling. Processors without
    running work are free from [now] (mapping into the past is
    impossible either way). *)

val alloc_cache_stats : t -> int * int * int
(** Summed [(hits, rescales, misses)] of every application's allocation
    cache (lifetime counts — they survive the departure-time
    {!Mcs_sched.Allocation.cache_release}). *)

val up_counts : t -> int array
(** Live processors per cluster under the current [proc_up] mask. *)

val up_power : t -> float
(** Aggregate GFlop/s of the live processors. *)

val any_up : t -> bool
(** Whether at least one processor is live. *)

val all_up : t -> bool
(** Whether every processor is live (the engine then schedules exactly
    as if no fault model were present). *)

val record_execution :
  t -> app -> int -> Mcs_sched.Schedule.placement ->
  finish:float -> outcome:Mcs_check.Fault_check.outcome -> unit
(** Append one attempt record ([finish] overrides the placement's
    nominal finish — a killed attempt ends at the outage instant). *)

val commit_started : t -> unit
(** Reserve in the ledger every started, not-yet-committed real
    placement. Called once per reschedule under fault injection.
    @raise Invalid_argument if a placement double-books a processor —
    a scheduling invariant violation that must not pass silently. *)

val rollback : t -> app -> int -> Mcs_sched.Schedule.placement ->
  at:float -> int
(** Kill the running attempt of node [v]: release its full reservation
    from the ledger (if committed), re-reserve the elapsed prefix
    [[start, at)] as history, and clear the committed flag. Returns the
    number of processor-reservations released (0 if uncommitted). *)

val schedules : t -> Mcs_sched.Schedule.t list
(** Final schedules in submission order.
    @raise Invalid_argument if some application was never fully
    scheduled (the engine only calls this once every app completed). *)
