(** Constraint audit (the "respected in 99% of the scenarios" claim of
    Section 4): for a grid of β values and a population of random PTGs,
    check how often the SCRAP-MAX allocation keeps every precedence
    level within [⌊β·P⌋] reference processors, and how often the mapped
    schedule's average power usage stays within [β × total power]. *)

type stats = {
  beta : float;
  scenarios : int;
  level_ok : int;      (** allocations within the per-level budget *)
  power_ok : int;      (** schedules within the average-power budget *)
}

val compute : ?runs:int -> ?betas:float list -> unit -> stats list
(** Default β grid: 0.1, 0.2, …, 1.0; [runs] PTGs per (β, platform). *)

val table : ?runs:int -> unit -> Mcs_util.Table.t
