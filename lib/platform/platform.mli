(** Heterogeneous multi-cluster platform model.

    A platform is a set of clusters, each holding identical processors of
    a given speed (GFlop/s). Clusters hang off network switches; on some
    sites all clusters share one switch, on others each cluster has its
    own, which changes contention behaviour exactly as described for the
    Grid'5000 subsets of the paper (Section 2). Processors are given
    global identifiers [0 .. total_procs - 1], cluster by cluster. *)

type cluster = {
  cluster_name : string;
  procs : int;            (** number of identical processors *)
  gflops : float;         (** per-processor speed, GFlop/s *)
  switch : int;           (** switch the cluster is attached to *)
}

type t

val make :
  name:string ->
  ?nic_bandwidth:float ->
  ?link_bandwidth:float ->
  ?backbone_bandwidth:float ->
  ?latency:float ->
  cluster list -> t
(** Build a platform. [nic_bandwidth] is the per-node network interface
    capacity (default 1.25e8 bytes/s — Gigabit Ethernet, the Grid'5000
    commodity-cluster standard of the paper's era); a redistribution
    between a p-processor and a q-processor allocation aggregates
    [min(p, q)] such streams. [link_bandwidth] is the capacity of each
    cluster's switch fabric, shared by all traffic entering or leaving
    the cluster (default 1.25e9, i.e., 10 Gb/s); [backbone_bandwidth]
    is the inter-switch backbone capacity (default 1.25e9); [latency]
    is the one-way LAN latency in seconds (default 1e-4).
    @raise Invalid_argument on an empty cluster list, a non-positive
    size, a speed or bandwidth that is not finite and positive, a
    latency that is not finite and non-negative, or a negative switch
    id. *)

val name : t -> string
val clusters : t -> cluster array
val cluster_count : t -> int
val cluster : t -> int -> cluster
val switch_count : t -> int

val total_procs : t -> int

val total_power : t -> float
(** Aggregate processing power Σ_k p_k·s_k in GFlop/s — the denominator
    of the β resource constraint. *)

val cluster_power : t -> int -> float
(** [procs × gflops] of one cluster. *)

val up_counts : t -> up:bool array -> int array
(** Surviving processors per cluster under an availability mask indexed
    by global processor id — the degraded view used by fault-aware
    allocation.
    @raise Invalid_argument if the mask length differs from
    [total_procs]. *)

val up_power : t -> up:bool array -> float
(** Aggregate power (GFlop/s) of the surviving processors — the
    degraded denominator of the β resource constraint.
    @raise Invalid_argument if the mask length differs from
    [total_procs]. *)

val min_speed : t -> float
(** Speed of the slowest processor (GFlop/s). *)

val heterogeneity : t -> float
(** [max_speed/min_speed - 1]: 0.202 for the Lille subset, etc. *)

val nic_bandwidth : t -> float
val link_bandwidth : t -> float
val backbone_bandwidth : t -> float
val latency : t -> float

val fabric_bandwidth : t -> int -> float
(** Effective switching capacity of one cluster's fabric:
    [max link_bandwidth (nic_bandwidth × procs/2)] — commodity cluster
    switches are close to non-blocking, so the fabric scales with the
    cluster (half-bisection), with [link_bandwidth] as a floor for tiny
    clusters. All traffic entering or leaving the cluster shares it. *)

val first_proc : t -> int -> int
(** Global id of the first processor of a cluster. *)

val cluster_of_proc : t -> int -> int
(** Cluster owning a global processor id.
    @raise Invalid_argument if out of range. *)

val proc_speed : t -> int -> float
(** Speed of a global processor id, GFlop/s. *)

val same_switch : t -> int -> int -> bool
(** Whether two clusters are attached to the same switch. *)

val pp : Format.formatter -> t -> unit
(** One-line summary. *)

val describe : t -> string
(** Multi-line, Table 1-style description. *)
