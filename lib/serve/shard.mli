(** One shard: a sub-platform, a mailbox and an engine session.

    A shard {e owns} its slice of the platform and its
    {!Mcs_online.Engine.session} exclusively — no other domain ever
    touches either. All communication is message passing through the
    shard's {!Squeue}: the router pushes submissions, peers push
    hand-offs, and the shard alone drains, injects and steps. β is
    recomputed per shard over that shard's active set only, which is
    exactly the paper's resource-constraint computation applied to the
    shard's sub-platform.

    The serving loop alternates two moves:

    + {b pickup} — drain the mailbox, shed overflow to the least-loaded
      peer if the admission policy says so, and inject the rest into
      the session ({!Mcs_online.Engine.submit} at the β-batching
      quantised instant);
    + {b step} — advance the session strictly below the watermark read
      at pickup. Submissions arrive in release order and quantisation
      never moves an arrival below its release, so every event below
      the watermark is final.

    A handed-off application is admitted at
    [max (quantised release) (receiver's now)] — the receiver may have
    advanced past the release; the extra wait is admission latency and
    shows up in the response time, never as time travel.

    Ownership extends below the session: the engine state inside it
    carries an {!Mcs_sched.Alloc_arena.t} and one allocation cache per
    application (both passed to {!Mcs_sched.Pipeline.prepare}), both
    single-owner mutable scratch. Because the shard alone steps its
    session, that scratch is confined to the shard's domain for free —
    no shard ever allocates against another shard's arena, and a
    hand-off re-primes the receiver's cache rather than sharing the
    sender's. *)

type msg = {
  global : int;  (** submission index across the whole service *)
  ptg : Mcs_ptg.Ptg.t;
  release : float;
  handoff : bool;  (** already shed once — must be admitted here *)
}

type t

val partition :
  Mcs_platform.Platform.t ->
  shards:int ->
  (Mcs_platform.Platform.t * int array) array
(** Split a platform into [shards] disjoint sub-platforms, balancing
    aggregate GFlop/s greedily (heaviest cluster first onto the
    lightest shard). Each sub-platform keeps its clusters in global
    index order (returned alongside) with switch ids renumbered
    compactly in order of first appearance — the identity on every
    stock platform, so a 1-shard partition reproduces the input
    cluster-for-cluster. Bandwidth and latency parameters are
    inherited.
    @raise Invalid_argument if [shards < 1] or exceeds the cluster
    count. *)

val make :
  index:int ->
  platform:Mcs_platform.Platform.t ->
  clusters:int array ->
  admission:Admission.t ->
  policy:Mcs_online.Policy.t ->
  crash_after:int option ->
  capture_log:bool ->
  check:bool ->
  faults:Mcs_fault.Fault.scenario option ->
  t
(** A fresh shard over its sub-platform, mailbox capacity and fault
    scenario per the arguments, its engine under [policy]. The shard
    keeps {!Mcs_online.Engine.snapshot} of its fresh session.
    [crash_after = Some n] scripts a crash of the serving loop after at
    least [n] injections, and the shard then journals every injection
    with its admission instant (see {!restore_crashed}); otherwise it
    journals nothing. Peers must be installed with {!set_peers} before
    any pickup can shed. *)

val set_peers : t -> t array -> unit
(** Install the full shard array (self included) — hand-off targets. *)

val queue : t -> msg Squeue.t
(** The shard's mailbox. Producers (router, peers) push; only the
    owning shard drains. *)

val hb_done : t -> Hb.sync
(** Happens-before sync released by {!finish}: after [Domain.join],
    {!Hb.acquire} it to model the join's visibility edge (race
    profile; no-op when the tracker is disabled). *)

val load : t -> float
(** Live in-flight gauge: GFlop injected minus GFlop departed.
    Readable from any domain. *)

val pickup : t -> unit
(** One non-blocking pickup + step: drain, shed, inject, advance to the
    drained watermark (fully, if the queue is closed). The inline
    fallback mode's unit of progress. *)

val serve_loop : t -> unit
(** Blocking serving loop: pickup on every mailbox signal until the
    queue closes, then drain what remains and advance to quiescence.
    The body of the shard's domain. Exits early — publishing
    {!crashed} — when the scripted [crash_after] threshold is
    reached. *)

val crashed : t -> bool
(** Whether the serving loop died at its scripted crash point (readable
    from any domain). The service heals such a shard with
    {!restore_crashed} and respawns the loop. *)

val restore_crashed : t -> unit
(** Rebuild the shard from the snapshot {!make} took of its fresh
    session, and re-submit the whole journal, each injection at its
    {e recorded} admission instant. The shard's records go back to
    their creation values first — id maps, work table, captured log,
    violation count and diagnostics, injection and hand-in counts,
    watermark — and the respawned loop re-derives them as it advances,
    re-emitting the log; by the watermark argument the re-run is
    bit-identical to the run that did not crash. [handoffs_out] is
    kept: what the shard shed before it died already sits in peers'
    mailboxes. The in-flight load gauge is re-derived from the
    re-submitted work, never inherited. No crash is scripted after a
    restore, so the shard drops its journal. Must be called on the
    service's domain, after the crashed domain was joined.
    @raise Invalid_argument if no crash is scripted (the shard keeps
    no journal). *)

val finish : t -> unit
(** Advance the session to quiescence (close-time sweep step). *)

val inject : t -> allow_shed:bool -> msg list -> unit
(** Shed (if allowed) and inject one drained batch — exposed for the
    service's close-time sweep, which must inject with shedding off to
    reach fixpoint. *)

type report = {
  shard : int;
  clusters : int array;  (** global cluster indices of the sub-platform *)
  engine : Mcs_online.Engine.result;
  global_ids : int array;  (** local app index → global submission id *)
  injected : int;
  handoffs_in : int;
  handoffs_out : int;
  queue_peak : int;
  peak_active : int;
  restores : int;  (** restores after scripted crashes *)
  violations : int;  (** checker errors across all generations + audit *)
  diagnostics : Mcs_check.Diagnostic.t list;  (** first few, for reports *)
  log : Mcs_online.Log.event list;
      (** chronological, local app indices; empty unless [capture_log] *)
}

val report : t -> report
(** Snapshot after quiescence ({!Mcs_online.Engine.result} semantics). *)
