(** Determination of the per-application resource constraint β
    (Section 6).

    - [Selfish] (S): every PTG may use the whole platform, β = 1.
    - [Equal_share] (ES): β = 1/|A|.
    - [Proportional m] (PS-m): β_i = γ_i / Σ_j γ_j (Eq. 1), with γ the
      chosen PTG characteristic.
    - [Weighted (m, µ)] (WPS-m): β_i = µ/|A| + (1−µ)·γ_i/Σγ_j (Eq. 2);
      µ = 0 gives PS, µ = 1 gives ES. *)

type metric =
  | Cp     (** critical path length (1-processor reference times) *)
  | Width  (** maximal precedence-level population *)
  | Work   (** total flops *)

type t =
  | Selfish
  | Equal_share
  | Proportional of metric
  | Weighted of metric * float

val name : t -> string
(** Paper spelling: "S", "ES", "PS-cp", "WPS-work(0.7)", … *)

val short_name : t -> string
(** Without the µ value: "WPS-work". *)

val of_short_name : string -> (t, string) result
(** Inverse of {!short_name}, with {!paper_mu} weights for the WPS
    strategies: ["WPS-work"] is [Weighted (Work, 0.7)]. [Error] carries
    ["unknown strategy <name>"]. *)

val paper_mu : metric -> float
(** The µ values retained in Section 7: work → 0.7, cp → 0.5,
    width → 0.5 (0.3 was preferred for FFT graphs; 0.5 is the random-PTG
    value and the default here). *)

val paper_eight : t list
(** The eight strategies compared in Figures 3–4, in the paper's order:
    S, ES, PS-cp, PS-width, PS-work, WPS-cp, WPS-width, WPS-work (with
    {!paper_mu} weights). *)

val paper_six : t list
(** The six strategies of Figure 5 (width-based ones excluded, as all
    Strassen PTGs share one width). *)

val betas :
  t -> ref_speed:float -> Mcs_ptg.Ptg.t list -> float array
(** Resource constraints for a set of concurrent applications, in list
    order. All values lie in (0, 1]; a zero Σγ (degenerate) falls back
    to equal share.
    @raise Invalid_argument on an empty list or µ outside [0, 1]
    (NaN included). *)
