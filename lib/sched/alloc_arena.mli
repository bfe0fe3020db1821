(** Reusable scratch for the SCRAP(-MAX) allocation loop.

    Every scheduler allocates through {!Pipeline.prepare}, whose live
    loop steps (cache misses, forks and extensions of
    {!Allocation.allocate_cached}) repair bottom and top levels and
    re-price gains in per-node arrays sized by the PTG. An arena owns
    those buffers and reuses them across calls, so steady-state
    allocation performs no per-call scratch allocation of its own (the
    loop state a trajectory extends lives in its cache entry).

    An arena is single-owner mutable state: it must never be shared
    across domains. The online engine embeds one per
    {!Mcs_online.State.t}, and the serving layer therefore gets one per
    shard for free (each shard's engine lives on its own domain); the
    offline evaluation ({!Mcs_experiments.Runner.evaluate}) uses one
    per scenario, and {!Pipeline.prepare} creates a fresh one when the
    caller passes none. The scratch {!Allocation.allocate} (the test
    oracle) spins up a private arena per call. *)

type t
(** A set of growable scratch buffers. Buffers grow monotonically to
    the largest PTG seen and are re-initialised by each live loop run;
    an arena holds no allocation state between calls. *)

val create : unit -> t
(** Fresh arena with empty buffers (they are sized on first use). *)

val reserve : t -> nodes:int -> unit
(** Ensure every buffer can hold [nodes] node slots. Growth discards
    contents (callers re-initialise the prefix they use). *)

val bl : t -> float array
(** Bottom-level buffer (≥ [nodes] slots after {!reserve}). *)

val tl : t -> float array
(** Top-level buffer (≥ [nodes] slots after {!reserve}). *)

val gain : t -> float array
(** Per-node buffer for the gain of granting one more processor
    (≥ [nodes] slots). A node's gain only moves when its own allocation
    does, so the loop prices each node once per increment it receives
    instead of once per candidate scan. *)

val dirty : t -> Bytes.t
(** Scratch for {!Mcs_dag.Dag.bottom_levels_update} /
    [top_levels_update] (≥ [nodes] bytes). Unlike the other buffers it
    carries an invariant {e between} uses: all-zero, which the repair
    functions restore before returning. *)
