(** Online-scheduling rules (ON001–ON003), checked against a snapshot
    taken right after one reschedule of the event-driven engine.

    The snapshot captures what the engine decided at virtual time [now]:
    the active applications, the β each was just assigned, its fresh
    allocation, the placements that were pinned going into the
    reschedule, and the schedule that came out. From that the checker
    verifies the three promises an online scheduler must keep — started
    work is never revoked, β is a function of the active set only, and
    no decision reaches into the past or touches an application that
    has not arrived — and re-runs the whole static rule set (allocation
    legality and mapping soundness) over the new schedules through
    {!Check.analyze}, the one driver of the static rules. *)

type snapshot_app = {
  index : int;  (** submission index, for diagnostics *)
  ptg : Mcs_ptg.Ptg.t;
  release : float;  (** original submission time *)
  beta : float;  (** β assigned by this reschedule *)
  alloc : int array;  (** fresh reference allocation *)
  pinned : Mcs_sched.Schedule.placement option array;
      (** placements frozen going into the reschedule *)
  schedule : Mcs_sched.Schedule.t;  (** the reschedule's output *)
}

type snapshot = {
  now : float;  (** virtual time of the reschedule *)
  strategy : Mcs_sched.Strategy.t;
  procedure : Mcs_sched.Allocation.procedure;
  apps : snapshot_app list;  (** the active set, in submission order *)
}

val analyze :
  Mcs_platform.Platform.t -> snapshot -> Diagnostic.t list
(** All diagnostics for one reschedule: ON001 (every pinned placement
    reappears untouched), ON002 (recomputing β with the snapshot's
    strategy over exactly the active PTGs reproduces the assigned
    values), ON003 (unpinned placements start at or after [now]; every
    scheduled application has arrived), then the DAG, ALLOC and MAP
    rule sets of {!Check.analyze} over the active set's β, allocations,
    releases and pinned placements, each diagnostic's application
    relabelled from its list position to its submission index. *)
