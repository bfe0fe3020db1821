(** Moldable data-parallel task model (Section 2 of the paper).

    A task operates on a dataset of [d] double-precision elements with
    4M ≤ d ≤ 121M (1 GByte of memory per processor). Its computational
    cost in flops follows one of three complexity classes, and its
    parallel execution time follows Amdahl's law with a non-parallelizable
    fraction α drawn in [0, 0.25]. The data a task sends to each
    successor is its dataset, i.e., [8·d] bytes. *)

type complexity =
  | Stencil of float  (** [a·d] flops, a ∈ [2^6, 2^9] — stencil sweeps *)
  | Sort of float     (** [a·d·log2 d] flops — sorting-like kernels *)
  | Matmul            (** [d^(3/2)] flops — √d×√d matrix product *)

type complexity_class = Class_stencil | Class_sort | Class_matmul | Class_mixed
(** The four evaluation scenarios: each pure class, or a random mix. *)

type t = {
  data : float;            (** dataset size d, in double elements *)
  complexity : complexity;
  alpha : float;           (** Amdahl non-parallelizable fraction *)
}

val d_min : float
(** 4M elements: smaller tasks would be fused with a neighbour. *)

val d_max : float
(** 121M elements: the 1 GByte memory bound. *)

val a_min : float
val a_max : float
(** Bounds of the iteration factor [a] (2^6 and 2^9). *)

val alpha_max : float
(** Largest non-parallelizable fraction (0.25). *)

val zero : t
(** Virtual task with no computation and no data — used for the added
    single entry/exit nodes of a PTG. *)

val is_zero : t -> bool

val make : data:float -> complexity:complexity -> alpha:float -> t
(** @raise Invalid_argument if [data < 0], [alpha] outside [0, 1], or a
    non-positive iteration factor. [data = 0] is allowed only through
    {!zero}-like virtual tasks. *)

val flops : t -> float
(** Sequential computational cost in floating-point operations. *)

val bytes : t -> float
(** Output data volume: [8·d] bytes. *)

val seq_time : t -> gflops:float -> float
(** Execution time on one processor of the given speed, in seconds. *)

val time : t -> gflops:float -> procs:int -> float
(** Amdahl execution time on [procs] processors of speed [gflops]:
    [seq·(α + (1−α)/p)]. @raise Invalid_argument if [procs < 1]. *)

val time_of_seq_into :
  t -> procs:int -> float array -> int -> float array -> int -> unit
(** [time_of_seq_into t ~procs seq i dst j] stores in [dst.(j)] the
    Amdahl time on [procs] processors of [t] taking [seq.(i)] seconds
    on one. It evaluates {!time}'s expression, so with
    [seq.(i) = seq_time t ~gflops] it stores [time t ~gflops ~procs]
    bit for bit. It is the variant for pricing loops that time many
    widths of one task: the sequential time is derived once, and
    neither the input nor the result is a boxed float.
    @raise Invalid_argument if [procs < 1]. *)

val speedup : t -> procs:int -> float
(** [seq_time/time] on any speed (speed cancels out). *)

val random :
  Mcs_prng.Prng.t -> class_:complexity_class -> t
(** Draw a task per Section 2: d uniform in [d_min, d_max], a uniform in
    [a_min, a_max], α uniform in [0, alpha_max]. [Class_mixed] first
    picks one of the three classes uniformly. *)

val pp : Format.formatter -> t -> unit
