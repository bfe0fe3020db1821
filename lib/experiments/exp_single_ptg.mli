(** Single-application comparison of the scheduling families behind the
    paper (the setting of N'Takpé, Suter & Casanova [11], whose
    conclusion — HCPA-style allocation trades a little makespan for much
    better efficiency than M-HEFT — motivates building fairness on
    constrained allocations):

    - HEFT (sequential tasks, Topcuoglu et al. [14]),
    - pure M-HEFT (one-step moldable EFT, Casanova et al. [1]),
    - M-HEFT with the efficiency bound of [11],
    - the two-step CPA-family allocation (SCRAP-MAX at β = 1, i.e., the
      HCPA regime) followed by the list mapper.

    Reported per family: mean makespan (normalised to the best) and mean
    parallel efficiency (useful flops over flop capacity held). *)

type stats = {
  algorithm : string;
  mean_relative_makespan : float;
  mean_efficiency : float;
}

val compute : ?runs:int -> unit -> stats list

val table : ?runs:int -> unit -> Mcs_util.Table.t
