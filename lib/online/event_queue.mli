(** Deterministic, generation-scoped event queue of the online engine.

    Seven event kinds drive the engine: an application {e arrival}, the
    {e finish} of one real task, the {e transient failure} of one real
    task at its end, an application {e departure} (the finish of its
    virtual exit node, i.e. its completion), processor
    {e outage}/{e recovery} events from the fault process, and
    malleability {e resize} points. Events are totally ordered by
    (time, kind, app/node content key, insertion sequence) so that a run
    is reproducible regardless of heap internals: at equal times, task
    finishes are observed before transient failures, then departures,
    then arrivals, then outages, then recoveries — an arrival-triggered
    rescheduling thus sees every simultaneous completion as already
    done, and an outage kills no task that completed at that very
    instant. Resize points sort after everything else at their instant,
    so a resize decision sees the post-batch world and never races the
    resized task's own finish. Within one kind the content key
    (application index, then node; first processor id for fault events)
    breaks ties, so the pop order is canonical even when fault events
    collide with announcements; the insertion sequence is only the final
    resort.

    Task-finish, task-failed, departure and resize events are
    {e announcements} of the current schedule generation: every
    reschedule rewrites the future and re-announces it. The queue keeps
    them apart from the events no reschedule revokes (arrivals, outages,
    recoveries), and {!next_generation} drops them all at once. Nothing
    revoked is ever popped or counted.

    Each side is one {!Mcs_util.Heap} whose slots hold only the
    ordering key, in scalar buffers. {!peek} and {!pop} rebuild a kind
    from its rank and content key; an outage's or recovery's processor
    array waits in a table under its insertion sequence and comes back
    physically equal. An announcement's kind is dead once pushed, and
    the event record is built only by {!peek} and {!pop}. The buffers
    survive {!next_generation}, so a warm generation allocates nothing
    else, and a pop that empties a side frees its buffers, so a drained
    queue keeps none. *)

type kind =
  | Arrival of int  (** application index *)
  | Task_finish of { app : int; node : int }
  | Task_failed of { app : int; node : int }
      (** transient failure at the attempt's end (fault injection) *)
  | Departure of int  (** application index *)
  | Proc_down of int array  (** global processor ids failing together *)
  | Proc_up of int array  (** global processor ids recovering together *)
  | Resize of { app : int; node : int }
      (** legal malleability resize point of one running task's current
          segment — an {e opportunity}, not a commitment: the engine
          re-evaluates the trigger at pop time and may decline *)

type event = {
  time : float;
  kind : kind;
}

type t

val create : unit -> t
(** Fresh empty queue with the insertion sequence at zero. *)

val push : t -> time:float -> kind -> unit
(** Queue one event. An announcement (finish, failure, departure,
    resize) belongs to the current generation.
    @raise Invalid_argument on a negative or non-finite time. *)

val next_generation : t -> unit
(** Open a new schedule generation: drop every pending announcement,
    keeping the buffers. Arrivals, outages and recoveries stay queued. *)

val pop : t -> event option
(** Remove and return the next event in (time, kind, content key,
    insertion) order, or [None] when the queue is empty. A pop that
    empties the announcements or the fixed events frees that side's
    buffers. *)

val peek : t -> event option
(** The event {!pop} would return, without removing it. *)

val is_empty : t -> bool
(** Whether no event is pending. *)

val length : t -> int
(** Number of pending events: the current generation's announcements
    plus every queued arrival, outage and recovery. *)

val pushed : t -> int
(** Total number of events ever pushed, dropped announcements included —
    the event-throughput counter reported by the benchmarks. *)
