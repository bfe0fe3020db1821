(** Concurrent mapping of allocated PTGs (Section 5).

    Tasks from all applications are mapped by a list scheduler whose
    priority is the bottom level (distance to the application's exit in
    reference execution times under the chosen allocations). Three
    orderings are provided:

    - [Ready_tasks] — the paper's proposal: only tasks whose
      predecessors are all mapped compete, so the entry task of a small
      PTG is considered immediately and cannot be postponed behind the
      whole body of a larger application;
    - [Global_fcfs] — the aggregated-ordering baseline ([15], Figure 1,
      top right): all tasks are sorted once by bottom level and mapped
      first-come-first-served with no backfilling, i.e., a task may not
      start before any task earlier in the list;
    - [Global_backfill] — the batch-scheduler remedy discussed in
      Section 5 (conservative backfilling [7]): same global list, but a
      task may slide into any idle hole since reservations, once made,
      never move — at the price of per-processor reservation timelines
      instead of simple availability times. Packing is not applied in
      this mode (batch reservations are rigid).

    A task is placed on the cluster and processor set giving the
    earliest estimated finish time (processor availability, predecessor
    finish times, and redistribution estimates). When [packing] is on
    and a task is delayed by processor availability, its allocation is
    reduced if and only if the reduction makes it start strictly earlier
    and finish no later than with its original allocation. Ties are
    broken exactly, with no tolerance: the earlier start, then the wider
    allocation, then the lower cluster index. The search prices only
    the (cluster, width) candidates that lower bounds leave a chance to
    win, so its placements are those of pricing every one, in any
    order.

    The working state lives in a {!session}: the availability index,
    the ready heap's scalar buffers, a placement scratch reused by every
    (task, cluster, width) pricing, and a memo of each application's
    topological ranks, sequential times per cluster, bottom levels and
    per-node translated widths with their times (DESIGN.md section
    10). A session has one owner: the online engine
    keeps one for its whole life, so a reschedule reuses what the
    previous generation built, and never shares it across domains.
    {!run} maps on a fresh session per call, so shard domains and
    [Parmap] workers may run it concurrently. Pricing
    a candidate allocates nothing, and the ready heap keeps its buffers
    from map to map; a map allocates the placements it writes. *)

type ordering = Ready_tasks | Global_fcfs | Global_backfill

type options = {
  ordering : ordering;
  packing : bool;
}

val default_options : options
(** [Ready_tasks] with packing — the paper's mapping procedure. *)

val run :
  ?options:options ->
  ?release:float array ->
  Mcs_platform.Platform.t ->
  Reference_cluster.t ->
  (Mcs_ptg.Ptg.t * int array) list ->
  Schedule.t list
(** [run platform ref apps] maps the applications (each given with its
    per-node reference allocation) and returns their schedules in input
    order: {!map} on a fresh session with nothing pinned. [release]
    gives per-application submission times (the paper submits
    everything at 0, its future-work section motivates staggered
    arrivals): no task of application [i] may start before
    [release.(i)].
    @raise Invalid_argument as {!map}, with [map]'s name in the
    message. *)

type session
(** A mapper's working state kept from one map to the next, bound to
    one platform. Single-owner mutable state: never share one across
    domains. It is a cache only: a fresh session maps exactly as a warm
    one. *)

val session : Mcs_platform.Platform.t -> session
(** A fresh session for the platform. *)

val map :
  ?options:options ->
  ?release:float array ->
  ?avail:float array ->
  ?up:bool array ->
  ?task_floor:float array array ->
  session ->
  Reference_cluster.t ->
  (int * Mcs_ptg.Ptg.t * int array) list ->
  placements:Schedule.placement option array array ->
  unit
(** [map session ref apps ~placements] maps the applications on the
    session's platform, each given with an id of the caller's choosing
    and its per-node reference allocation, and writes the placements in
    place. [release] is as in {!run}.

    The other arguments support partial rescheduling by the online
    engine ({!Mcs_online.Engine}). On entry [placements.(i)] is
    application [i]'s pinned array: [placements.(i).(v) = Some pl]
    freezes node [v] at [pl] — it is not remapped, it feeds its
    successors' data-ready times and the in-place redistribution rule,
    it is shared as it is (never re-wrapped), and its processor
    occupancy is assumed to be reflected in [avail]. A predecessor of an
    unpinned node must be pinned or belong to the mapped set. The map
    fills every [None], so on return every entry is [Some].
    [avail.(p)] is the time from which processor [p] may receive new
    work (default 0 everywhere): the availability profile of a
    partially-occupied platform.

    [up] and [task_floor] support fault recovery. [up.(p) = false]
    masks processor [p] out: no new placement may use it, a translated
    width is capped to a cluster's surviving processors, and a cluster
    with no live processor offers no candidate (pinned history is
    untouched — completed work may legitimately sit on processors that
    died later). [task_floor.(i).(v)] is an extra per-task start floor
    (retry backoff), max'd with [release.(i)].

    The session keeps per id the topological ranks of its PTG and its
    tasks' sequential times on each cluster, valid while the id maps to
    the same PTG (physical equality), and its bottom levels, recomputed
    only when the allocation or the reference speed differs from the
    previous map's. A node's width on each cluster and its time there
    are recomputed when the node is placed under another allocation or
    reference speed than last time. The cluster groups and the availability index are
    rebuilt only when the [up] mask changes. A map that raises leaves
    the session usable, but may leave [placements] partly filled.
    @raise Invalid_argument on an empty list, an id given twice, an
    allocation array of the wrong length, an ill-sized [release] or
    [avail] or one with a negative or non-finite (NaN, infinite) entry,
    ill-sized [placements]/[up]/[task_floor], a mislabeled pinned
    placement, a negative or non-finite (NaN, infinite) [task_floor]
    entry, or when [up] leaves no live cluster able to host some
    task. *)

val forget : session -> int -> unit
(** [forget session id] drops the memo of application [id] (a no-op for
    an unknown id), so the memory a session holds follows the caller's
    live applications. Forgetting the last one also frees the ready
    heap's buffers. *)
