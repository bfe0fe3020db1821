(** Incremental per-group availability index.

    The list mapper ranks the processors of each cluster by availability
    time for every task it places. Re-sorting a cluster's processor
    array per task costs O(P log P) per task×cluster; this index keeps,
    for each group (cluster), a permanently sorted view keyed by
    [(avail, id)] and repairs it in O(P + m) when a commit moves [m]
    processors — the only thing a commit can do.

    The index shares the caller's availability array: {!update} writes
    both the array and the sorted views, so reads through the original
    array stay coherent.

    An index owns its scratch buffers (an id-sorted copy of every group,
    membership marks, survivor and member buffers), allocated once by
    {!create}: {!update}, {!release} and {!reset} allocate nothing. The
    scratch makes an index single-owner mutable state — never share one
    across domains. *)

type t

val create : avail:float array -> groups:int array array -> t
(** [create ~avail ~groups] builds an index over the ids appearing in
    [groups], keyed by [(avail.(id), id)]. Groups must be disjoint and
    every id must be a valid index into [avail]; the [avail] array is
    shared, not copied, and must hold no NaN.
    @raise Invalid_argument if an id is out of range or appears in two
    groups. *)

val reset : t -> unit
(** [reset t] re-sorts every view from the shared [avail] array, after
    the caller rewrote any of its entries directly. The result is the
    view {!create} would build over the same array and groups (the
    [(avail, id)] order is unique), so a long-lived index can follow a
    new availability profile without being rebuilt. The array must hold
    no NaN. *)

val group_count : t -> int

val sorted : t -> int -> int array
(** [sorted t g] is group [g]'s ids in increasing [(avail, id)] order.
    The returned array is the index's internal state: treat it as
    read-only, and as invalidated by the next {!update}. *)

val avail : t -> int -> float
(** Current availability of one id. *)

val update : t -> int array -> float -> unit
(** [update t ids v] sets the availability of every id in [ids] to [v]
    and repairs the sorted views. Ids may span several groups (each
    affected group is repaired with a single merge pass), come in any
    order and contain duplicates. Safe to call with an empty array
    (no-op).

    {b Mirror contract with {!Timeline}.} The mapper pairs every
    [update] with a {!Timeline.reserve} and every {!release} with a
    {!Timeline.release}. [Timeline] {e ignores} zero-length intervals,
    so a zero-length commit must not move the index either: the caller
    skips the [update] (or re-writes the unchanged availability, which
    leaves the views identical). The interleaved reserve/release
    equivalence property in [test_timeline.ml] pins the two structures
    to the same horizon under that discipline.
    @raise Invalid_argument on an id outside every group or a
    non-finite [v] (the mirror of [Timeline]'s rejection of ill-formed
    intervals). *)

val release : t -> int array -> float -> unit
(** [release t ids v] rolls the availability of [ids] back to [v] —
    the rollback counterpart of a commit, used when fault recovery
    revokes placements. The repair pass is direction-agnostic, so this
    is exactly {!update}; the distinct name marks intent at call sites
    and pins the rollback contract: after [release t ids v] the index is
    indistinguishable from one freshly built with those availabilities
    (property-tested). *)
