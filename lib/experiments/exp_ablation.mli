(** Design-choice ablations called out in DESIGN.md.

    - {b Packing} (Section 5): the allocation-packing mechanism shrinks
      a delayed task's allocation when that strictly improves its start
      without degrading its finish. Compared on/off.
    - {b SCRAP vs SCRAP-MAX} (Section 4): the paper keeps SCRAP-MAX
      because SCRAP's globally-checked constraint can leave a few large
      allocations that postpone ready tasks. Compared under ES. *)

val configs_table :
  title:string ->
  seed:int ->
  makespan:string * (Sweep.mean -> float) ->
  (string * Mcs_sched.Pipeline.config) list ->
  ?runs:int ->
  ?counts:int list ->
  unit ->
  Mcs_util.Table.t
(** ES on random-PTG scenarios under each labelled pipeline
    configuration: one row per PTG count, with every configuration's
    mean unfairness, then its mean of the [makespan] measure under that
    measure's column label. *)

val packing_table : ?runs:int -> ?counts:int list -> unit -> Mcs_util.Table.t
(** Mean unfairness and mean global makespan with and without packing
    (ES strategy, random PTGs). *)

val procedure_table : ?runs:int -> ?counts:int list -> unit -> Mcs_util.Table.t
(** Same comparison between the SCRAP and SCRAP-MAX allocation
    procedures. *)
