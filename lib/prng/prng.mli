(** Deterministic, splittable pseudo-random number generator.

    Every stochastic component of the reproduction (DAG generation, task
    parameters, scenario sampling) draws from this generator so that a
    scenario is fully determined by a single integer seed. The stream is
    xoshiro256** seeded through splitmix64; {!split} derives an
    independent child stream, which lets the experiment harness hand each
    application / run its own generator without coupling their draw
    counts. *)

type t

val create : seed:int -> t
(** Generator deterministically initialised from [seed]. *)

val copy : t -> t
(** Independent clone with identical state (same future draws). *)

val split : t -> t
(** Child generator whose stream is independent of the parent's
    subsequent draws. Advances the parent. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)

val int_in : t -> lo:int -> hi:int -> int
(** Uniform integer in the closed interval [lo, hi].
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [0, bound). *)

val uniform : t -> lo:float -> hi:float -> float
(** Uniform float in [lo, hi). @raise Invalid_argument if [hi < lo]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> p:float -> bool
(** [true] with probability [p] (clamped to [0, 1]). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed draw with the given mean (inverse-CDF). *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array.
    @raise Invalid_argument on the empty array. *)
