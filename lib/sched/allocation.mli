(** Constrained resource allocation — the SCRAP and SCRAP-MAX procedures
    of Section 4 (originally from the authors' PDCS'07 paper), built on
    the CPA/HCPA allocation loop.

    Both procedures start from one reference processor per task and
    repeatedly give one more processor to the critical-path task that
    benefits the most, until the critical path no longer dominates the
    constrained average area (the CPA convergence criterion, with the
    area computed against the β share of the reference cluster) or the
    resource constraint blocks every candidate:

    - {b SCRAP} enforces the constraint globally: the schedule's average
      power usage [Σ(t_v·p_v)/T_CP] must stay within [β·procs] — which
      is exactly the CPA stop criterion against the constrained area, so
      the loop simply stops at the boundary.
    - {b SCRAP-MAX} enforces it per precedence level: for every level,
      [Σ_{v at level} p_v ≤ max(1 task each, ⌊β·procs⌋)], so that
      concurrently-ready tasks of one level can always run side by
      side within the PTG's power share.

    {2 Incremental allocation}

    Every scheduler in this repository allocates through
    {!Pipeline.prepare}, which serves each request from a
    per-application trajectory cache ({!allocate_cached}) on a reusable
    scratch arena ({!Alloc_arena.t}). The increment trajectory of the
    loop depends on β only through the {e integer} per-level budget
    [⌊β·procs⌋] (and the allocation cap), while β proper only decides
    {e where along that trajectory} the CPA stop criterion fires. A
    cache records trajectories, each step annotated with the
    {e budget interval} and the {e cap interval} under which its choice
    is provably what a scratch run would choose: from the usage and the
    allocation the choice needs, up to the smallest budget and the
    smallest cap that would have admitted a better candidate. Entries
    are therefore not keyed by cap: a trajectory recorded before an
    outage keeps serving after it for as long as the lower cap admits
    its steps. A request replays the recorded stop tests and interval
    checks — bit-identical to a scratch run by construction, at
    O(nodes + steps) instead of O(steps · (nodes + edges)) — and a
    request whose budget or cap escapes some step's interval starts a
    new trajectory from the same constructor as a fresh one, sharing
    the validated prefix: it is copied in O(nodes + steps) and only the
    divergent tail runs live. The online engine's budgets drift a few
    processors per generation and the offline evaluation runs every β
    strategy on the same PTGs, so forks diverge deep and tails stay
    short. {!allocate} is the scratch run the cache must reproduce. *)

type procedure = Scrap | Scrap_max
(** Which resource constraint bounds the increment loop: the global
    average-power criterion ([Scrap]) or the per-precedence-level
    budget on top of it ([Scrap_max], the paper's default). *)

type result = {
  procs : int array;        (** reference processors per DAG node *)
  iterations : int;         (** number of +1 increments performed *)
  critical_path : float;    (** final critical path length, seconds *)
  average_area : float;     (** final T_A against the β share *)
}
(** Outcome of one allocation. [procs] is indexed by DAG node; virtual
    entry/exit nodes keep one processor and zero cost. *)

val allocate :
  ?procedure:procedure ->
  ?up_counts:int array ->
  Reference_cluster.t ->
  Mcs_platform.Platform.t ->
  beta:float ->
  Mcs_ptg.Ptg.t ->
  result
(** [allocate ref platform ~beta ptg] computes the allocation (default
    procedure: [Scrap_max]). Virtual entry/exit nodes keep one processor
    and zero cost. Allocations are capped by
    {!Reference_cluster.max_allocation} so every task fits in at least
    one real cluster — against the surviving processors only when
    [up_counts] is given (degraded platform; see
    {!Mcs_platform.Platform.up_counts}). A scratch run on private
    buffers: the reference {!allocate_cached} is tested against, and
    the right call for a one-off allocation of a PTG no cache will see
    again. Schedulers allocate through {!Pipeline.prepare} instead.
    @raise Invalid_argument unless [0 < beta <= 1] (NaN included). *)

type cache
(** Per-application allocation cache: materialised increment
    trajectories, every step carrying its validity intervals over
    per-level budgets and allocation caps, with an MRU bound on
    retained trajectories. A cache binds to the first PTG, procedure
    and reference speed it serves and rejects any other — everything
    else an allocation depends on (β, the reference-cluster size, the
    degraded cap) is checked at replay time, which is how
    degraded-platform generations get correct results from the same
    cache: a moved cap is checked against every recorded step like a
    moved budget. *)

type stats = {
  hits : int;      (** same cap, same budget and stop power as the last
                       request the entry served (β alone is not enough —
                       on a degraded reference cluster the same β means
                       a different ⌊β·procs⌋): cached result as-is *)
  rescales : int;  (** β or the cap moved: a recorded trajectory
                       replayed (and possibly extended) under the new
                       budget and cap *)
  misses : int;    (** no trajectory survived replay: a live run was
                       needed — forked off the deepest validated prefix
                       when one exists, fully from scratch otherwise *)
}
(** Cumulative outcome counts of {!allocate_cached} calls. Survives
    {!cache_release} (the counts describe the cache's lifetime, not its
    current contents). *)

val cache_create : unit -> cache
(** Fresh empty cache. One per application: the online engine keeps
    one per submitted application, the offline evaluation one per PTG
    per scenario. *)

val cache_release : cache -> unit
(** Drop every entry and the PTG/procedure/speed binding — the
    departed application's memory is fully released (the bound PTG
    becomes collectable) and the cache may later be re-bound to a
    different PTG. Scoped by construction: caches are per-application,
    so releasing one never evicts a still-active neighbour's
    trajectories. Statistics survive. *)

val cache_stats : cache -> stats
(** Lifetime hit/rescale/miss counts. *)

val cache_entry_count : cache -> int
(** Number of trajectories currently materialised — bounded by a small
    internal MRU limit. *)

val allocate_cached :
  ?procedure:procedure ->
  ?up_counts:int array ->
  cache:cache ->
  arena:Alloc_arena.t ->
  Reference_cluster.t ->
  Mcs_platform.Platform.t ->
  beta:float ->
  Mcs_ptg.Ptg.t ->
  result
(** Cached {!allocate}: bit-identical results — the same [procs],
    [iterations], [critical_path] and [average_area], float for float —
    at a fraction of the cost whenever a recorded trajectory's budget
    and cap intervals cover the request, and at the cost of only the
    divergent tail otherwise. The returned [procs] array is owned by
    the cache on the exact-hit path and must not be mutated;
    {!Pipeline.prepare}, the one caller outside the tests, hands its
    callers a copy. The arena is single-owner scratch: never share one
    across domains.
    Updates the [alloc.cache.*] observability counters.
    @raise Invalid_argument unless [0 < beta <= 1] (NaN included), or
    if the cache is reused with a different PTG, procedure or
    reference speed. *)

type trajectory = {
  steps : int array;
      (** five ints per increment: the node given one more processor,
          then the budget interval [[req, ceil)] and the cap interval
          [[clo, chi)] its choice is valid in *)
  cps : float array;    (** critical path of every visited state *)
  areas : float array;  (** raw area Σ exec·procs of every visited state *)
  closed : bool;        (** the run ended with no candidate left *)
  closed_ceil : int;    (** smallest budget that would continue it *)
  closed_chi : int;     (** smallest cap that would continue it *)
}
(** What a cache entry records of one live run of the increment loop. *)

val trajectory :
  procedure:procedure ->
  budget:int ->
  cap:int ->
  beta_power:float ->
  Reference_cluster.t ->
  Mcs_ptg.Ptg.t ->
  trajectory
(** The record of a fresh live run under an explicit per-level
    [budget], allocation [cap] and stop power [beta_power] (β·procs),
    from one processor per node: the states and steps a cache entry
    keeps and replays. A test hook, kept so the tests can hold the loop
    against a reference copy of it step by step, bounds included. *)

val budget_of : Reference_cluster.t -> beta:float -> int
(** [max 1 ⌊β·procs⌋] — the per-level reference-processor budget of
    SCRAP-MAX (Eq. 2). The floor is epsilon-guarded so a product landing
    one ulp below an integer (0.57 × 100 = 56.999999999999993) does not
    silently drop a processor. Every consumer of the level budget (the
    allocator, the invariant checker and the allocation cache key) must
    use this one definition. The allocator's candidate filter enforces
    the level rule; the one audit of it is the checker's ALLOC002
    ([Mcs_check.Alloc_check.check_level_share]), which the X1
    experiment and the tests call with this budget. *)
