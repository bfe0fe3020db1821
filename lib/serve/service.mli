(** Scheduler-as-a-service: the sharded multi-tenant serving engine.

    A service partitions a platform into {!Shard.partition} shards, each
    owning an {!Mcs_online.Engine.session} over its sub-platform, and
    serves a {e release-ordered} submission stream against them. In
    [Domains] mode every shard runs its serving loop on its own OCaml 5
    domain; submissions flow through bounded per-shard mailboxes
    ({!Squeue}) with admission control and backpressure per
    {!Admission}, cross-shard hand-offs are explicit messages, and
    shards synchronise with the submitting caller only through the
    watermark protocol (see {!Shard}).

    {b Determinism.} In [Inline] mode (single-domain fallback) the whole
    service runs on the caller's domain — pickups happen when a mailbox
    fills and at close — and the outcome is a pure function of
    (platform, stream, config). At one shard with exact admission
    ([batch_window = 0.]) it is {e bit-identical} to
    {!Mcs_online.Engine.run} over the same stream. In [Domains] mode
    the outcome is the same pure function whenever the router is
    deterministic ([Round_robin]/[Least_work]) and shedding is off:
    each shard's result depends only on its own sub-stream, whatever
    the interleaving. [Least_loaded] routing and shedding trade that
    replayability for adaptivity, explicitly.

    {b Closing} is a two-phase drain: close every mailbox and join the
    domains, then sweep all queues to fixpoint on the caller's domain
    (hand-offs can land in a mailbox after its owner exited; the sweep
    injects them with shedding off, so it terminates). Nothing is ever
    dropped: every admitted submission is injected into exactly one
    shard — [submitted = admitted + rejected], checked by the tests. *)

type mode =
  | Inline  (** deterministic single-domain fallback *)
  | Domains  (** one domain per shard *)

type config = {
  shards : int;
  mode : mode;
  router : Router.choice;
  admission : Admission.t;
  policy : Mcs_online.Policy.t;  (** every shard's engine policy *)
  kill : (int * int) option;
      (** [Some (k, n)]: scripted fault-tolerance drill — shard [k]'s
          serving domain dies after ≥ [n] injections; the service
          detects it, rebuilds the shard from the snapshot of its
          fresh session and a journal of every injection, and
          respawns the loop. The recovered run's merged log is
          bit-identical to the no-kill run (shedding off).
          [Domains] mode only: {!create} rejects it in [Inline] mode *)
  capture_logs : bool;  (** per-shard event logs, for merge/export *)
  check : bool;
      (** per-generation ON/ALLOC/MAP + post-run FAULT/MAL execution
          audit *)
  faults : Mcs_fault.Fault.config option;
      (** per-shard outage process on its sub-platform *)
  fault_seed : int;  (** shard [k] uses [fault_seed + k] *)
}

val default_config : config
(** 4 shards, [Domains], [Least_work] routing, {!Admission.default},
    arrival-only rescheduling (the registry policy ["static"] over
    {!Mcs_online.Policy.make}, as [mcs_serve_cli]'s default
    [--policy static]: its work counts under [policy.static.*]), no kill,
    no logs, no checker, no faults. *)

type outcome =
  | Admitted of int  (** accepted, routed to the returned shard *)
  | Rejected  (** refused by admission control (queue full, [Reject]) *)

type report = {
  shards : Shard.report array;
  submitted : int;
  admitted : int;
  rejected : int;
  handoffs : int;
  peak_active : int;  (** Σ per-shard concurrency high-water marks *)
  responses : float array;
      (** by global submission id; completion − release, admission
          latency included; [nan] for rejected submissions *)
  events : int;  (** engine events processed, all shards *)
  reschedules : int;
  remapped : int;
  restores : int;  (** restores after scripted crashes *)
  violations : int;  (** checker errors, all shards *)
  wall_s : float;  (** create → close, seconds *)
}

type t

val create : config -> Mcs_platform.Platform.t -> t
(** Partition, spawn (in [Domains] mode) and stand ready.
    @raise Invalid_argument on an ill-formed config (shard count,
    admission policy, fault config, a kill spec out of range or in
    [Inline] mode). *)

val submit : t -> Mcs_ptg.Ptg.t -> release:float -> outcome
(** Route one submission. Releases must be nondecreasing — the
    watermark protocol's only requirement of the caller. May block
    (admission [Block] on a full mailbox: backpressure). Advances every
    shard's watermark whatever the outcome.
    @raise Invalid_argument on a decreasing release or after {!close}. *)

val close : t -> report
(** Drain everything, join the domains, audit and aggregate.
    @raise Invalid_argument if already closed. *)

val run_stream :
  ?rate:float ->
  config ->
  Mcs_platform.Platform.t ->
  (Mcs_ptg.Ptg.t * float) list ->
  report
(** [create] + one {!submit} per PTG (list order; releases must be
    nondecreasing) + {!close}, wrapped in the ["serve.run"] observation
    span. [rate > 0.] paces submissions at that many per wall-clock
    second — the workload-driver knob of [bin/mcs_serve]; [0.] (the
    default) does not pace them.
    @raise Invalid_argument on a negative or NaN [rate], before any
    shard starts, and as {!create} and {!submit} do. *)

val merged_log : report -> (int * Mcs_online.Log.event) list
(** The shard logs relabelled to global submission ids and sort-merged
    ({!Stats.merge}); empty unless [capture_logs] was set. *)
