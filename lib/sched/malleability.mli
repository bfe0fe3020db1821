(** Malleability model: when and at what price a {e running} task may
    change width.

    The paper's tasks are moldable — the processor count is fixed when
    the task starts — so a running wide task cannot give processors
    back under an arrival spike, and a narrow one cannot widen once the
    platform drains. Following the malleable-task literature
    ("Scheduling Trees of Malleable Tasks", Guermouche et al.;
    "Multi-Resource List Scheduling of Moldable Jobs", Perotin et al.)
    this model adds the two ingredients the online engine needs to go
    past that:

    - {b legal resize points}: a segment started at [start] may only be
      preempted on the grid [start + k·quantum] ([k ≥ 1]) — work
      between grid points is indivisible;
    - {b redistribution cost}: a resize moving [m] processors (released
      plus acquired) charges [redist_cost · m] seconds of overhead
      before the resized segment makes progress, modelling the data
      redistribution of the moved block rows.

    A width floor ([min_width]) bounds any resized segment from below
    (the task's cluster bounds it from above); the trigger thresholds
    ([shrink_active_above], [grow_active_below]) parameterize the
    default policy-kernel decision of {e when} to resize. The model
    itself is pure and engine-agnostic. *)

type t = {
  quantum : float;  (** grid spacing of legal resize points, seconds *)
  redist_cost : float;  (** seconds charged per moved processor *)
  min_width : int;  (** no resized segment runs on fewer processors *)
  shrink_active_above : int;
      (** default trigger: shrink while more applications are active *)
  grow_active_below : int;
      (** default trigger: grow while fewer applications are active *)
}

val default : t
(** [quantum = 30], [redist_cost = 0.05], [min_width = 1], shrink
    above 2 active applications, grow below 2. *)

val validate : t -> unit
(** @raise Invalid_argument on a non-positive or non-finite quantum, a
    negative or non-finite cost, [min_width < 1], or a negative trigger
    threshold. *)

val next_resize_point : t -> start:float -> now:float -> float
(** First grid point [start + k·quantum] ([k ≥ 1]) strictly after
    [now] (within the float tolerance): the earliest instant the
    segment may legally be preempted. *)

val resize_cost : t -> moved:int -> float
(** [redist_cost · moved] — the overhead in seconds of a resize that
    releases plus acquires [moved] processors in total. *)

val target_width : t -> active:int -> width:int -> cap:int -> int
(** The default trigger decision for a segment currently [width] wide
    while [active] applications are in the system: halve under an
    arrival spike ([active > shrink_active_above]), double when the
    platform drains ([active < grow_active_below]), hold otherwise.
    The result is clamped to [\[min_width, cap\]]; equal to [width]
    means "no resize". *)
