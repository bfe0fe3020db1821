(** Fluid network model with max-min fair bandwidth sharing.

    This is the same steady-state model as SimGrid's default network
    model: each active flow follows a route (a set of links); rates are
    assigned by progressive filling — repeatedly saturate the most
    contended link, splitting its remaining capacity equally among its
    unfrozen flows — which yields the max-min fair allocation.

    The module only computes rates; timing is the engine's business.
    A network holds its active flows in insertion order, each with a
    caller payload of type ['a] and the rate the last {!update}
    assigned it. *)

type 'a t

val create : capacities:float array -> 'a t
(** One network with [Array.length capacities] links and no flows.
    @raise Invalid_argument on a capacity that is not finite and
    positive. *)

val link_count : 'a t -> int

type 'a flow
(** Handle on a flow, carrying its payload and its current rate. *)

val add_flow : 'a t -> int list -> 'a -> 'a flow
(** [add_flow t route data] registers a flow traversing the given links
    (duplicates ignored). A flow with an empty route is only bounded by
    [max_rate]. Its rate is 0 until the next {!update}. The network
    counts the flows crossing each link, so adding and removing keep
    the set of links that {!update} visits.
    @raise Invalid_argument on an unknown link id. *)

val remove_flow : 'a t -> 'a flow -> unit
(** Unregister; the other flows keep their insertion order. Removing
    twice is an error. Rates are not recomputed until the next
    {!update}.
    @raise Invalid_argument if the flow is not active. *)

val update : 'a t -> unit
(** Assign every active flow its max-min fair rate, bytes/s. Flows
    bounded by nothing get [max_rate]. Only links crossed by an active
    flow are visited, and the call allocates nothing. Rates are
    bit-for-bit those of the textbook progressive filling that recounts
    every link each round. *)

type work = {
  updates : int;  (** calls to {!update} *)
  rounds : int;  (** progressive-filling rounds across those calls *)
  links_visited : int;  (** links scanned for a share, summed over rounds *)
}

val work : 'a t -> work
(** The work {!update} has done on this network since {!create}. *)

val rate : 'a flow -> float
(** Rate assigned by the last {!update} that saw the flow (0 before). *)

val data : 'a flow -> 'a
(** The payload given to {!add_flow}. *)

val iter : 'a t -> ('a flow -> unit) -> unit
(** Visit the active flows, newest first. The callback must not add or
    remove flows. *)

val max_rate : float
(** The rate bound of every flow (1e18 — effectively unbounded); only a
    flow with an empty route reaches it. *)
