(** Imperative binary min-heap.

    The heap is generic in the element type and is ordered by the
    comparison function supplied at creation ([cmp a b < 0] means [a] has
    higher priority, i.e., pops first). Used for the simulator event queue
    and the ready-task queues of the mapper. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** Fresh empty heap ordered by [cmp]. *)

val copy : 'a t -> 'a t
(** Independent heap with the same ordering and contents: pushes and
    pops on either side never affect the other. Elements themselves are
    shared, not cloned — store immutable elements (or deep-copy them)
    if the copy must be fully self-contained. O(n). *)

val length : 'a t -> int
(** Number of elements currently stored. *)

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Insert an element; O(log n) amortised. Doubling the buffer copies
    the old one and never forces a minor collection. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum element, or [None] when empty. The
    heap drops its own reference to the element, so a popped value is
    collectable as soon as the caller is done with it. *)

val pop_exn : 'a t -> 'a
(** Like {!pop}, without allocating the option.
    @raise Invalid_argument when the heap is empty. *)

val peek : 'a t -> 'a option
(** Return the minimum element without removing it. *)

val clear : 'a t -> unit
(** Remove every element and release the backing store. *)

val to_list : 'a t -> 'a list
(** All elements in unspecified order (heap is unchanged). *)

val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a t
(** Heapify a list; O(n log n). *)
