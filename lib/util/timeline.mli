(** Per-processor reservation timelines with hole search — the machinery
    behind conservative backfilling (Feitelson et al., JSSPP'97), where a
    task may slide into an idle hole provided no already-reserved task is
    delayed.

    A timeline tracks, for a fixed set of processors, the busy intervals
    already reserved on each. {!find_slot} returns the earliest time at
    or after a release time at which a given number of processors are
    simultaneously free for a given duration, together with a best-fit
    choice of processors. Reservations are only ever added: none moves
    or goes away once placed.

    Each processor's reservations are stored as parallel sorted arrays
    of starts and finishes, so point queries ({!is_free}, the best-fit
    key) are O(log r) binary searches in the number of reservations [r]
    on that processor, and {!reserve} is a binary search plus an array
    shift. *)

type t

val create : procs:int -> t
(** Timeline for processors [0 .. procs-1], initially all idle.
    @raise Invalid_argument if [procs < 1]. *)

val reserve : t -> proc:int -> start:float -> finish:float -> unit
(** Mark [proc] busy on [start, finish). Zero-length reservations are
    ignored.
    @raise Invalid_argument if the interval is ill-formed, out of range,
    or overlaps an existing reservation on that processor. *)

val is_free : t -> proc:int -> start:float -> finish:float -> bool
(** Whether [proc] is idle during the whole interval. *)

val find_slot :
  ?procs_subset:int array -> t -> count:int -> duration:float ->
  after:float -> (float * int array) option
(** [find_slot t ~count ~duration ~after] is the earliest [start >=
    after] such that [count] processors (within [procs_subset] when
    given) are free on [start, start + duration), paired with a
    best-fit processor choice (the ones whose previous reservation ends
    latest). [None] only when [count] exceeds the processors considered.
    With finite reservations a slot always exists after the last
    release. *)
