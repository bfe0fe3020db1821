(** Mutable world state of the online engine.

    The state tracks, at the engine's virtual time [now], every
    submitted application with its lifecycle status, current β, and
    current schedule (a placement per DAG node, [None] until the
    application is first scheduled). The split between {e pinned} and
    {e remappable} placements is purely temporal: a placement whose
    start is at or before [now] has begun (or finished) and can no
    longer be revoked; everything strictly in the future is up for
    rescheduling.

    Fault injection adds a per-processor liveness mask ([proc_up]) and
    per-task retry bookkeeping ([failures], [retry_at]). Both are inert
    — never read, never written — when the engine runs without a fault
    scenario. What ran, in every mode, is the attempt log
    ([executions]).

    A state is never copied. {!Engine.restore} builds a new one by
    creating the session again and replaying the calls that changed
    it, so every structure here, allocation caches included, is
    rebuilt by the code that built it the first time. *)

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
  mutable verdicts : int array;
      (** the engine's memo of each node's transient-failure verdict
          under fault injection: [2 * attempt + 1] if that attempt is
          rolled to fail, [2 * attempt] if it completes, [-1] before
          the first roll; [[||]] until the engine rolls one and again
          once the application departs. A pure
          function of the scenario seed, the application, the node and
          the attempt, so a cold memo rolls the same *)
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
  mutable executions : Mcs_check.Exec_check.execution list;
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

val add_app : t -> Mcs_ptg.Ptg.t -> release:float -> app
(** Append one application (index = current count, status [Pending]).
    Used by the re-entrant session API to absorb streamed submissions.
    @raise Invalid_argument on a negative/non-finite release time. *)

val active : t -> app list
(** Applications that have arrived and not yet completed, in submission
    order — the set β is recomputed over. *)

val pinned_of : t -> app -> Mcs_sched.Schedule.placement option array
(** A fresh array of the placements of [app] that have started
    (start ≤ now): the frozen part {!Engine.audit} hands the checker.
    All-[None] for an application that has never been scheduled. The
    engine's reschedule pins in place instead. *)

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
  finish:float -> outcome:Mcs_check.Exec_check.outcome -> unit
(** Append one attempt record ([finish] overrides the placement's
    nominal finish — a killed attempt ends at the outage instant). *)

val schedules : t -> Mcs_sched.Schedule.t list
(** Final schedules in submission order.
    @raise Invalid_argument if some application was never fully
    scheduled (the engine only calls this once every app completed). *)
