(** End-to-end two-step scheduling: β determination → constrained
    allocation → concurrent mapping. This is the entry point used by the
    examples, the CLI and the experiment harness. *)

type config = {
  procedure : Allocation.procedure;  (** default [Scrap_max] *)
  mapper : List_mapper.options;      (** default ready-list + packing *)
}

val default_config : config
(** The paper's configuration: SCRAP-MAX allocation, ready-list mapping
    with allocation packing. *)

type prepared = {
  betas : float array;                    (** β per application *)
  allocations : Allocation.result array;  (** allocation per application *)
}

val prepare :
  ?config:config ->
  ?ref_cluster:Reference_cluster.t ->
  ?up_counts:int array ->
  ?caches:Allocation.cache list ->
  ?arena:Alloc_arena.t ->
  strategy:Strategy.t ->
  Mcs_platform.Platform.t ->
  Mcs_ptg.Ptg.t list ->
  prepared
(** Run the allocation step only — the one allocation path of every
    scheduler here, offline and online. Each PTG is allocated through
    {!Allocation.allocate_cached}: with [caches] (one per PTG, in list
    order) the trajectories they hold are replayed and extended, so a
    caller that allocates the same PTGs again under other β values —
    the online engine every generation, the offline evaluation once
    per strategy — pays only for what it has not seen; without them
    each PTG gets a one-shot cache. [arena] (default: a fresh one) is
    the loop's scratch. Neither changes a result: allocations are
    bit-identical to {!Allocation.allocate}'s. The returned [procs]
    arrays belong to the caller.

    [ref_cluster] overrides the reference cluster derived from the full
    platform — the online engine passes a {!Reference_cluster.degrade}d
    one during an outage so β shares are taken of the surviving
    aggregate power; [up_counts] likewise caps per-task allocations to
    what still fits in some live cluster.
    @raise Invalid_argument if [caches] and the PTG list differ in
    length, or as {!Allocation.allocate_cached} does. *)

val map :
  ?config:config ->
  ?release:float array ->
  Mcs_platform.Platform.t ->
  Mcs_ptg.Ptg.t list ->
  prepared ->
  Schedule.t list
(** The mapping step: map every PTG concurrently under its allocation
    in [prepared] (in list order), with submission times [release]
    (default all 0). The schedules are a function of the platform,
    [release], the mapper options in [config], the PTGs and the
    allocations alone, so two [prepared] values with equal allocations
    map to equal schedules. *)

val schedule_concurrent :
  ?config:config ->
  ?release:float array ->
  ?check:(prepared:prepared -> Schedule.t list -> unit) ->
  ?caches:Allocation.cache list ->
  ?arena:Alloc_arena.t ->
  strategy:Strategy.t ->
  Mcs_platform.Platform.t ->
  Mcs_ptg.Ptg.t list ->
  Schedule.t list
(** Allocate each PTG under its strategy-determined β ({!prepare},
    which takes [caches] and [arena]), then map all of them
    concurrently ({!map}). Schedules are returned in input order.
    [release] gives per-application submission times (default all 0).

    [check] is called once with the allocation step's output and the
    final schedules, before they are returned — a seam for the
    invariant analyzer ([Mcs_check.Check.pipeline_hook] raises on any
    violated rule) that keeps this library free of a dependency on the
    checker. Exceptions it raises propagate. *)

val schedule_alone :
  ?config:config ->
  ?cache:Allocation.cache ->
  ?arena:Alloc_arena.t ->
  Mcs_platform.Platform.t ->
  Mcs_ptg.Ptg.t ->
  Schedule.t
(** Dedicated-platform schedule (β = 1, no competitor) — the M_own
    baseline of the slowdown metric. [cache] and [arena] as in
    {!prepare}. *)
