(** Workload sampling for the evaluation scenarios (Section 7).

    Three application families are used: randomly generated PTGs of 10,
    20 or 50 tasks with shape parameters drawn from the paper's grid,
    FFT PTGs of 4, 8 or 16 points, and Strassen PTGs (fixed 25-task
    shape). A scenario is a set of 2–10 concurrent applications of one
    family, submitted together on one platform. *)

type family =
  | Random_ptgs of Mcs_taskmodel.Task.complexity_class
  | Random_mixed_scenarios
      (** each application draws its cost scenario among the four *)
  | Fft_ptgs
  | Strassen_ptgs

val family_name : family -> string

val family_of_string : string -> (family, string) result
(** The command-line spelling of the scenario families: ["random"]
    ([Random_mixed_scenarios]), ["fft"] and ["strassen"]. [Error]
    carries ["unknown family <name>"]. *)

val draw : Mcs_prng.Prng.t -> family -> count:int -> Mcs_ptg.Ptg.t list
(** [draw rng family ~count] samples [count] applications, ids
    [0 .. count-1]. *)

val releases : Mcs_prng.Prng.t -> count:int -> mean:float -> float array
(** A Poisson submission stream: [count] release times, the first 0 and
    each later one an exponential gap of mean [mean] after the previous
    one, drawn in order from [rng]. A mean of 0 releases every
    application at 0.
    @raise Invalid_argument if [mean] is negative, NaN or infinite. *)

val paper_counts : int list
(** [[2; 4; 6; 8; 10]] concurrent applications. *)
