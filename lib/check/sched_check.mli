(** Mapping-soundness rules (MAP001–MAP007).

    These re-verify, from first principles, what the list mapper is
    supposed to guarantee: placements are structurally coherent, every
    task runs inside one real cluster, no processor is double-booked
    (sweep-line over per-processor busy intervals), every start honours
    its predecessors' finish times plus the redistribution delay,
    packing only ever shrank an allocation, and nothing starts before
    its submission.

    The per-placement rules ({!check_placement}, {!check_packing}), the
    per-edge precedence rule ({!check_precedence}) and the overlap
    sweep ({!check_overlap}) are the only implementations of their
    rules: the trace linter ({!Trace_check}) calls them on parsed rows.
    The precedence bound is {!Mcs_taskmodel.Redistribution.estimate},
    the delay the mapper charges without its aggregate destination-NIC
    bound — which can only delay starts further — so a schedule the
    mapper accepts is never falsely flagged, while a forged start time
    below the physical transfer bound is. *)

type feed =
  app:int -> node:int -> procs:int array -> start:float -> finish:float -> unit
(** [add ~app ~node ~procs ~start ~finish] adds one busy interval per
    processor of [procs], in [procs]' order, for node [node] of
    application [app]. *)

val check_overlap :
  emit:(Diagnostic.t -> unit) -> rule:Rule.t -> (feed -> unit) -> unit
(** [check_overlap ~emit ~rule intervals] is the overlap sweep-line:
    [intervals add] feeds the busy intervals through [add]; the sweep
    sorts them per processor, keeps the latest finish seen on each, and
    flags every interval starting more than the time tolerance before
    it, reporting [rule]. [intervals] runs twice, once to count and once
    to fill flat arrays, and must feed the same intervals both times;
    nothing outlives the call. The sort is stable, so among intervals
    tied on processor, start and finish the first fed is the holder a
    diagnostic names. The only implementation of both overlap rules:
    MAP004 over schedules ({!check_schedules}) and parsed trace rows
    ({!Trace_check}), MAL003 over execution attempts ({!Exec_check}). *)

val check_precedence :
  emit:(Diagnostic.t -> unit) ->
  app:int ->
  node:int ->
  start:float ->
  pred:int ->
  pred_finish:float ->
  cost:float ->
  unit
(** MAP005 on one edge: task [node] starts no earlier than its
    predecessor [pred]'s finish plus the redistribution [cost]. Skips
    non-finite times, which MAP001 reports. The one implementation of
    the rule, for schedules ({!check_schedules}) and trace rows
    ({!Trace_check}); each caller prices [cost] with the model its
    inputs allow. *)

type tags
(** Scratch for MAP003's distinctness test: one slot per processor of a
    platform. Mutable and single-owner: each audit call makes its own,
    so audits on several domains share nothing. *)

val tags : Mcs_platform.Platform.t -> tags
(** Fresh scratch for the platform's processors. *)

val check_placement :
  emit:(Diagnostic.t -> unit) ->
  ?platform:Mcs_platform.Platform.t ->
  ?tags:tags ->
  app:int ->
  virt:bool ->
  release:float ->
  Mcs_sched.Schedule.placement ->
  unit
(** The rules one placement can break on its own: MAP001 (finite times,
    finish not before start), MAP002 (a virtual task holds no processor
    and takes no time, a real task holds one), MAP003 (distinct
    processors of the task's cluster) and MAP007 (no start before
    [release]). The duration and release checks skip non-finite times,
    which MAP001 reports. Without a [platform], MAP003 only checks that
    processor ids are non-negative. With [tags] (made for the same
    platform), MAP003 tests distinctness in one pass over the ids and
    sorts a copy of them only when one repeats or lies outside the
    platform; the diagnostics and their order are the same either
    way. *)

val check_packing :
  emit:(Diagnostic.t -> unit) ->
  Mcs_platform.Platform.t ->
  Mcs_sched.Reference_cluster.t ->
  app:int ->
  alloc:int ->
  Mcs_sched.Schedule.placement ->
  unit
(** MAP006: a placement holds at most the processors its reference
    allocation [alloc] translates to on its cluster. Silent when the
    cluster does not exist (MAP003) or [alloc < 1] (ALLOC001). *)

val check_schedules :
  emit:(Diagnostic.t -> unit) ->
  ?allocations:int array array ->
  ?release:float array ->
  ?pinned:Mcs_sched.Schedule.placement option array array ->
  Mcs_platform.Platform.t ->
  Mcs_sched.Schedule.t list ->
  unit
(** Run MAP001–MAP007 over a set of concurrent schedules.
    [allocations] (reference processors per node, per application)
    enables MAP006 packing verification; [pinned] marks placements
    frozen by the online engine, which MAP006 skips — a pinned task may
    carry an allocation from an earlier β generation. [release] gives
    per-application submission times for MAP007 (default all 0). *)
