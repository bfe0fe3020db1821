(** The execution audit (FAULT001-003, MAL001-003).

    The online engine keeps a chronological log of {e execution
    attempts} — one record per time a task occupied processors, whether
    the attempt completed, was killed by a processor outage, failed
    transiently at its end, or was preempted at a malleability resize
    point. This checker audits that log, in every execution mode, once
    the run is over.

    Each task's attempts are sorted by (start, finish) and cut into
    {e chains}: a chain is a run of {!Resized} segments closed by any
    other outcome. A moldable attempt, never resized, is a chain of one
    segment; a retry after a kill or failure restarts the work from
    scratch and opens a new chain.

    - {b FAULT001} ([Rule.Fault_down_overlap]): no attempt overlaps a
      down interval of any processor it ran on. A kill truncated at the
      failure instant {e touches} the interval, which is legal.
    - {b FAULT002} ([Rule.Fault_retry_bound]): no task records more
      transient failures than [max_retries].
    - {b FAULT003} ([Rule.Fault_conservation]): every real task of
      every application completes exactly once, as its chronologically
      last attempt, on a cluster of the platform. A chain of one
      segment pays the task's full execution time on its cluster and
      width when it completes or fails, and never more when killed.
    - {b MAL001} ([Rule.Mal_width_bounds]): in a chain of two or more
      segments, every post-resize segment's width is at least
      [min_width], differs from the previous segment's width, and
      stays inside the task's cluster. Without a malleability model a
      {!Resized} record is itself a violation.
    - {b MAL002} ([Rule.Mal_cost_accounting]): a chain never ends in a
      resized segment; in a chain of two or more segments, each
      continuation abuts its predecessor and pays at least its
      redistribution overhead ([redist_cost × moved processors], kills
      excepted), and the segments, overheads excluded, sum to exactly
      one task's worth of work when the chain ends in a completion or
      transient failure — at most one when killed.
    - {b MAL003} ([Rule.Mal_overlap]): no processor runs two attempts
      at overlapping times — the global counterpart of the
      per-generation MAP004. *)

type outcome =
  | Completed  (** the attempt finished and its result was kept *)
  | Killed  (** a processor outage truncated the attempt *)
  | Failed  (** transient failure at the end: full duration, work lost *)
  | Resized
      (** the segment was preempted at a malleability resize point; the
          task continues as a new segment at a different width *)

type execution = {
  app : int;  (** application submission index *)
  node : int;  (** DAG node *)
  cluster : int;
  procs : int array;  (** global processor ids *)
  start : float;
  finish : float;
  outcome : outcome;
}

val check :
  malleability:Mcs_sched.Malleability.t option ->
  max_retries:int ->
  down:(float * float) list array ->
  Mcs_platform.Platform.t ->
  ptgs:Mcs_ptg.Ptg.t array ->
  execution list ->
  Diagnostic.t list
(** Audit an execution log. [malleability] is the model resize chains
    are checked against ([None] for a moldable run); [down.(p)] is
    processor [p]'s sorted, disjoint down intervals
    ({!Mcs_fault.Fault.down_intervals} produces exactly this shape, but
    the checker deliberately takes plain data and does not depend on
    the generator; a run without faults passes no intervals); [ptgs]
    are the applications in submission order. Returns diagnostics in
    deterministic order — empty when the log is clean.
    @raise Invalid_argument on a negative [max_retries], a [down] whose
    length differs from the platform's processor count, or an
    ill-formed model ({!Mcs_sched.Malleability.validate}). *)
