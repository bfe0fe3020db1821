(** Binary min-heap over scalar slots.

    A slot is a float key and four int ties, and nothing else. Slots
    pop in increasing order of the key, then of the ties, compared
    lexicographically: keys that compare neither lower nor higher
    (equal keys, or a NaN) tie and the ints decide. A caller whose ties
    are unique gets a total order, so its pop sequence does not depend
    on the heap's internals.

    A caller keeps its payload in the ties, or keeps it elsewhere under
    a unique tie: the heap stores no value, so a push or a sift writes
    no pointer and costs no write barrier. The keys and ties live in
    unboxed buffers that the heap keeps until {!release}: once they have
    grown, the heap allocates nothing on a push and {!clear} makes no
    garbage. The online engine's event queue and the mapper's ready
    heap each keep theirs across generations, the replay orders its
    events in one, and the DAG's topological sort draws its frontier
    from one. *)

type t

val create : unit -> t
(** Fresh empty heap with no buffers. *)

val length : t -> int
(** Number of elements. *)

val is_empty : t -> bool

val push : t -> float -> int -> int -> int -> int -> unit
(** [push t key a b c d] inserts a slot under [key] with the ties
    [a, b, c, d]; O(log n). Full buffers double. *)

val min_key : t -> float
(** The minimum element's key.
    @raise Invalid_argument on an empty heap (so do {!min_int} and
    {!drop_min}). *)

val min_int : t -> int -> int
(** [min_int t j] is the minimum element's tie [j], from 0 to 3.
    @raise Invalid_argument on another [j]. *)

val min_before : t -> t -> bool
(** Whether the minimum of the first heap sorts strictly before the
    minimum of the second. Both must be non-empty. *)

val drop_min : t -> unit
(** Remove the minimum element; O(log n). *)

val clear : t -> unit
(** Remove every element and keep the buffers. *)

val release : t -> unit
(** Remove every element and free the buffers. *)
