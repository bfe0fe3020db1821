(** Schedules: the outcome of mapping one PTG onto the platform.

    A placement fixes, for each DAG node, the cluster, the exact
    processor set, and the start/finish times. Virtual entry/exit nodes
    occupy no processor. The invariant analyzer ([Mcs_check]) checks
    the properties every correct concurrent schedule must have. *)

type placement = {
  node : int;
  cluster : int;
  procs : int array;  (** global processor ids; empty for virtual nodes *)
  start : float;
  finish : float;
}

type t = {
  ptg : Mcs_ptg.Ptg.t;
  placements : placement array;  (** indexed by DAG node *)
  makespan : float;              (** finish time of the exit node *)
}

val make : ptg:Mcs_ptg.Ptg.t -> placements:placement array -> t
(** Computes the makespan from the exit placement.
    @raise Invalid_argument if the array length differs from the node
    count. *)

val placement : t -> int -> placement
(** Placement of one DAG node ([placements.(node)]). *)

val cluster_busy_time :
  platform:Mcs_platform.Platform.t -> t list -> float array
(** Processor-seconds consumed per cluster over a set of concurrent
    schedules — the basis of utilisation reports. *)

val parallel_efficiency :
  platform:Mcs_platform.Platform.t -> t -> float
(** Useful flops over the flop capacity of the processor time held:
    1 when every held processor computes all the time, lower when
    Amdahl overheads waste capacity. 0 for an empty schedule. *)

val used_power_avg : t -> platform:Mcs_platform.Platform.t -> float
(** Average processing power used over the schedule's span, in GFlop/s:
    Σ (duration × Σ proc speeds) / makespan. Compared against
    [β × total power] in the constraint-audit experiment. *)

val gantt : platform:Mcs_platform.Platform.t -> t list -> string
(** Text Gantt chart of the concurrent schedules, 78 columns wide (one
    line per cluster, applications lettered), for the examples and
    CLI. *)
