(** Parallel task graphs: DAGs whose nodes are moldable data-parallel
    tasks ({!Mcs_taskmodel.Task}) and whose edges carry the volume of
    data exchanged between tasks.

    Every PTG has a single entry and a single exit task (the generators
    add zero-cost virtual tasks when the underlying structure has several
    sources or sinks), matching the paper's model. *)

type t = private {
  id : int;                  (** identifier within a scenario *)
  name : string;
  dag : Mcs_dag.Dag.t;
  tasks : Mcs_taskmodel.Task.t array;  (** per node *)
  edge_bytes : float array;            (** per edge id, bytes *)
  entry : int;                         (** the single source node *)
  exit : int;                          (** the single sink node *)
  work : float;                        (** see {!work} *)
  max_width : int;                     (** see {!max_width} *)
}

val create :
  id:int ->
  name:string ->
  dag:Mcs_dag.Dag.t ->
  tasks:Mcs_taskmodel.Task.t array ->
  edge_bytes:float array ->
  t
(** Computes {!work} and {!max_width} once, for the strategies that read
    them on every reschedule.
    @raise Invalid_argument when array lengths disagree with the DAG,
    when the DAG does not have exactly one source and one sink, or when
    a byte volume is negative. *)

val task_count : t -> int
(** Number of real (non-virtual) tasks. *)

val node_count : t -> int
(** Number of DAG nodes, virtual entry/exit included. *)

val entry : t -> int
(** The single source node, found by {!create}: O(1). *)

val exit : t -> int
(** The single sink node, found by {!create}: O(1). *)

val is_virtual : t -> int -> bool
(** True for the zero-cost entry/exit nodes added by generators. *)

val work : t -> float
(** Total flops over all tasks — the γ of the [work] strategies. O(1). *)

val max_width : t -> int
(** Largest precedence-level population counting only real tasks — the
    γ of the [width] strategies. O(1). *)

val critical_path_seq : t -> gflops:float -> float
(** Length (seconds) of the critical path when every task runs on a
    single processor of speed [gflops], communications excluded — the γ
    of the [cp] strategies. *)

val pp : Format.formatter -> t -> unit

val to_dot : t -> string
(** Graphviz rendering with task labels and data volumes. *)
