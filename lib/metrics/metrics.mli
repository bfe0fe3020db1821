(** Evaluation metrics (Section 7).

    Fairness is assessed through the slowdown each application suffers
    from resource sharing. Following the paper (Eq. 3), the slowdown of
    application [a] is [M_own(a) / M_multi(a)] — the dedicated-platform
    makespan over the concurrent one — so values lie in (0, 1] with 1
    meaning "not perturbed at all". A schedule is fair when every
    application experiences a similar slowdown; unfairness (Eq. 5) is
    the L1 dispersion of slowdowns around their mean.

    {b Degenerate applications.} An empty PTG or a faulted run can
    produce a zero (or non-finite) makespan. Raising there would abort a
    whole experiment sweep for one pathological draw, so instead:
    {!slowdown} {e saturates} a degenerate pair to the neutral value 1
    (an application with no work is, by definition, not slowed down),
    and {!unfairness_of_makespans} {e skips} degenerate applications so
    that the saturated value cannot shift the mean the well-formed
    applications are compared against. Both choices are deliberate and
    regression-tested. *)

val slowdown : own:float -> multi:float -> float
(** [M_own / M_multi]. Saturates to [1.] when either makespan is zero,
    negative or non-finite (degenerate application — see above). *)

val unfairness : float array -> float
(** Eq. 5: [Σ_a |slowdown a − average|]. [0.] on the empty array (no
    applications disagree about their treatment). *)

val unfairness_of_makespans : own:float array -> multi:float array -> float
(** Convenience composition of the above, skipping degenerate
    applications (zero/non-finite makespan on either side); [0.] when
    every application is degenerate.
    @raise Invalid_argument on mismatched lengths. *)

val relative_makespan : float -> best:float -> float
(** Makespan divided by the best makespan achieved on the same
    experiment (≥ 1 when [best] is the minimum).
    @raise Invalid_argument if [best <= 0]. *)
