(** Static data-redistribution cost model.

    When task [u] feeds task [v] and the two run on different processor
    sets, the [8·d] bytes produced by [u] must be redistributed. The
    transfer aggregates one stream per communicating node pair, so its
    rate is bounded by [min(p_u, p_v) × nic_bandwidth] and by the switch
    fabrics it crosses:

    - same cluster: the cluster's fabric;
    - different clusters on one switch: both fabrics;
    - different switches: both fabrics and the backbone.

    The mapper uses this latency + bandwidth estimate to compute
    data-ready times; the discrete-event simulator replays the same
    transfers as fluid flows whose rates additionally react to
    contention on the shared fabrics (see {!Mcs_sim}). *)

val route_bandwidth :
  Mcs_platform.Platform.t -> src_cluster:int -> dst_cluster:int -> float
(** Capacity (bytes/s) of the narrowest shared fabric on the route,
    ignoring the per-node streams. *)

val rate :
  Mcs_platform.Platform.t ->
  src_cluster:int -> dst_cluster:int ->
  src_procs:int -> dst_procs:int -> float
(** Uncontended transfer rate:
    [min(min(src_procs, dst_procs) × nic, route_bandwidth)].
    @raise Invalid_argument when a processor count is < 1. *)

val transfer_time :
  Mcs_platform.Platform.t ->
  src_cluster:int -> dst_cluster:int ->
  src_procs:int -> dst_procs:int -> bytes:float -> float
(** [latency + bytes/rate], ignoring the same-processor-set
    short-circuit of {!estimate} (0 when [bytes = 0]). *)

val estimate :
  Mcs_platform.Platform.t ->
  src_cluster:int ->
  src_procs:int array ->
  dst_cluster:int ->
  dst_procs:int array ->
  bytes:float ->
  float
(** Estimated transfer time in seconds. Zero when [bytes = 0] or when
    the destination runs on exactly the processors of the source (data
    already in place). *)

val same_procs : int array -> int array -> bool
(** Set equality of two processor arrays (order-insensitive). Arrays
    equal in order, and arrays whose sums or xors differ, are decided
    without allocating. *)
