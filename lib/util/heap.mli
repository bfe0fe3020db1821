(** Binary min-heap over scalar slots.

    A slot is a float key, four int ties and a value. Slots pop in
    increasing order of the key, then of the ties, compared
    lexicographically: keys that compare neither lower nor higher
    (equal keys, or a NaN) tie and the ints decide. A caller whose ties
    are unique gets a total order, so its pop sequence does not depend
    on the heap's internals.

    Keys and ties live in unboxed buffers that the heap keeps until
    {!release}: once they have grown, the heap allocates nothing on a
    push and {!clear} makes no garbage. The online engine's event queue
    and the mapper's ready heap each keep theirs across generations, and
    the DAG's topological sort draws its frontier from one. *)

type 'a t

val create : dummy:'a -> 'a t
(** Fresh empty heap with no buffers. [dummy] fills every slot that
    holds no element, so the heap never keeps a removed value alive;
    pass an immediate or a long-lived value. *)

val length : 'a t -> int
(** Number of elements. *)

val is_empty : 'a t -> bool

val push : 'a t -> float -> int -> int -> int -> int -> 'a -> unit
(** [push t key a b c d v] inserts [v] under [key] with the ties
    [a, b, c, d]; O(log n). Full buffers double, copying the old ones
    and never forcing a minor collection. *)

val min_key : 'a t -> float
(** The minimum element's key.
    @raise Invalid_argument on an empty heap (so do the other [min_]
    readers and {!drop_min}). *)

val min_int : 'a t -> int -> int
(** [min_int t j] is the minimum element's tie [j], from 0 to 3.
    @raise Invalid_argument on another [j]. *)

val min_value : 'a t -> 'a
(** The minimum element's value. *)

val min_before : 'a t -> 'b t -> bool
(** Whether the minimum of the first heap sorts strictly before the
    minimum of the second. Both must be non-empty. *)

val drop_min : 'a t -> unit
(** Remove the minimum element; O(log n). *)

val clear : 'a t -> unit
(** Remove every element and keep the buffers. *)

val release : 'a t -> unit
(** Remove every element and free the buffers. *)
