(** Post-run aggregation helpers for the serving layer.

    Pure functions over per-shard outputs: latency percentiles over the
    response vector, and the deterministic sort-merge of per-shard event
    logs. The merge is the determinism witness used by the test-suite —
    two runs of the same stream under different domain interleavings
    must produce identical merged logs, because each shard's log is a
    pure function of its own submission sub-stream and the merge order
    [(time, shard, per-shard position)] is interleaving-independent. *)

val gauge_add : float Atomic.t -> float -> unit
val gauge_sub_floor : float Atomic.t -> float -> unit
(** [gauge_sub_floor g d] subtracts [d], clamping at [0.] — the shape
    every load gauge decrement uses. *)

val percentile : float array -> p:float -> float
(** Nearest-rank percentile ([p] in [0, 1]) over the finite values of
    the input (copied, sorted); [nan] when none are finite. [p = 0.5]
    is the median, [p = 0.99] the tail. *)

val relabel : (int -> int) -> Mcs_online.Log.event -> Mcs_online.Log.event
(** Map every application index through the function (shard-local →
    global submission id, including the β list of reschedule records). *)

val merge :
  (int * Mcs_online.Log.event list) list -> (int * Mcs_online.Log.event) list
(** Sort-merge shard-tagged chronological logs into one stream ordered
    by [(time, shard)], per-shard order preserved at equal times. *)
