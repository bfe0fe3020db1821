(** Incremental per-group availability index.

    The list mapper ranks the processors of each cluster by availability
    time for every task it places. Re-sorting a cluster's processor
    array per task costs O(P log P) per task×cluster; this index keeps,
    for each group (cluster), a permanently sorted view keyed by
    [(avail, id)]. A placement takes a contiguous window of one view and
    makes it available at its finish, no earlier than any id in the
    window: {!commit} moves that window alone, past the ids it
    overtakes.

    The index shares the caller's availability array: {!commit} writes
    both the array and the sorted view, so reads through the original
    array stay coherent.

    An index owns its scratch buffers (an id-sorted copy of every group
    and one group-long buffer), allocated once by {!create}: {!commit}
    and {!reset} allocate nothing. The scratch makes an index
    single-owner mutable state — never share one across domains. *)

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
    new availability profile without being rebuilt. A view starts with
    the ids at its group's least availability, in id order, and only
    the others are merge-sorted: a profile whose idle processors share
    one availability costs a sort of the busy ones alone. The array
    must hold no NaN. *)

val sorted : t -> int -> int array
(** [sorted t g] is group [g]'s ids in increasing [(avail, id)] order.
    The returned array is the index's internal state: treat it as
    read-only, and note that {!commit} and {!reset} rewrite it in
    place. *)

val avail : t -> int -> float
(** Current availability of one id. *)

val commit : t -> int -> lo:int -> width:int -> float -> unit
(** [commit t g ~lo ~width v] sets the availability of the ids at
    positions [lo .. lo + width - 1] of [sorted t g] to [v], which must
    be no earlier than the last (latest) of them, and restores the
    [(avail, id)] order: the view is then the one {!reset} would
    compute. A [width] of 0 changes nothing.

    The ids before the window keep their positions. The commit sorts
    the window's ids by insertion, shifts left the survivors after it
    whose availability is below [v], and merges the window with the
    survivors at exactly [v] by id: O(w + i + s + e) for a window of
    [w] ids, [i] insertion shifts, [s] survivors passed and [e] ties at
    [v] read, whatever the group's size.
    @raise Invalid_argument on a non-finite [v], a window outside the
    view, or a [v] below the window's last availability. *)
