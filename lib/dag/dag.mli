(** Directed acyclic graphs over integer nodes.

    This is the structural layer under {!Mcs_ptg.Ptg}: nodes are
    [0 .. node_count - 1], edges carry an integer identifier so that
    clients can attach weights in parallel arrays. Graphs are immutable
    once built; {!of_edges} validates acyclicity. *)

type t

exception Cycle of int list
(** Raised by {!of_edges} with the offending cycle (node list). *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds the DAG on nodes [0..n-1]. Duplicate edges
    are collapsed; self loops raise {!Cycle}.
    @raise Cycle if the edge set contains a directed cycle.
    @raise Invalid_argument on out-of-range endpoints or [n < 0]. *)

val node_count : t -> int
val edge_count : t -> int

val edge : t -> int -> int * int
(** [edge t e] is the [(src, dst)] pair of edge id [e]. *)

val edge_id : t -> src:int -> dst:int -> int option
(** Identifier of the edge [src -> dst], if present. *)

val succs : t -> int -> (int * int) array
(** [succs t v] is the [(dst, edge_id)] pairs leaving [v]. Do not mutate. *)

val preds : t -> int -> (int * int) array
(** [preds t v] is the [(src, edge_id)] pairs entering [v]. Do not mutate. *)

val in_degree : t -> int -> int

val sources : t -> int list
(** Nodes with no predecessor, ascending. *)

val sinks : t -> int list
(** Nodes with no successor, ascending. *)

val topological_order : t -> int array
(** A topological order of all nodes (deterministic: Kahn's algorithm
    with a min-ordered frontier). *)

val depth_levels : t -> int array
(** Precedence level of each node: sources are at level 0 and
    [level v = 1 + max (level pred)] — the paper's precedence levels. *)

val level_members : t -> int array array
(** [level_members t].(l) lists the nodes whose {!depth_levels} is [l]. *)

val depth : t -> int
(** Number of distinct precedence levels ([0] for the empty graph). *)

val max_width : t -> int
(** Size of the largest precedence level ([0] for the empty graph). *)

val bottom_levels :
  t -> node_weight:(int -> float) -> edge_weight:(int -> float) ->
  float array
(** [bottom_levels].(v): longest path length from [v] (inclusive) to any
    sink — the list-scheduling priority used by the mapper. *)

(** {2 Level kernel}

    Bottom and top levels at zero edge weight over a node weight array
    [w], written into caller-owned arrays of at least [node_count]
    entries (only the first [node_count] are touched). The SCRAP
    increment loop and the mapper's priorities recompute levels
    thousands of times per call, so these passes call no closure and
    box no float. The bottom pass is bit-identical to {!bottom_levels}
    with [~node_weight:(fun v -> w.(v))] and [~edge_weight:(fun _ -> 0.)],
    and the top pass to the same closure formulation over predecessors:
    the same max-folds over the same operands, in the same order. *)

val fill_bottom_levels : t -> float array -> float array -> unit
(** [fill_bottom_levels t w bl] writes every bottom level into [bl].
    @raise Invalid_argument if [w] or [bl] is shorter than the graph. *)

val fill_top_levels : t -> float array -> float array -> unit
(** [fill_top_levels t w tl] writes every top level into [tl].
    @raise Invalid_argument if [w] or [tl] is shorter than the graph. *)

val repair_levels :
  t -> float array -> changed:int -> dirty:Bytes.t -> bl:float array ->
  tl:float array -> unit
(** [repair_levels t w ~changed ~dirty ~bl ~tl] brings [bl] and [tl],
    levels of [w] before [w.(changed)] moved, up to date with the new
    weight. It refreshes only the nodes whose max actually changes:
    [changed] and then the predecessors its movement reaches for [bl],
    the successors of [changed] and then those their movement reaches
    for [tl] (a top level excludes the node's own weight). The result
    is bit-identical to a full pass: refreshed nodes apply the same
    max-fold to the same operands, and untouched nodes keep values
    computed from unchanged inputs. [dirty] is caller-owned scratch of
    at least [node_count] bytes, all-zero on entry and restored to
    all-zero on return. Each +1-processor step of the SCRAP loop
    changes one execution time, so the loop repairs levels along the
    affected cone instead of re-traversing the DAG.
    @raise Invalid_argument if an array or [dirty] is shorter than the
    graph. *)

val reachable_from : t -> int -> bool array
(** Nodes reachable from the given node (inclusive). *)

val to_dot :
  ?graph_name:string ->
  ?node_label:(int -> string) ->
  ?edge_label:(int -> string) ->
  t -> string
(** Graphviz rendering, for the [mcs_gen] tool and debugging. *)
