(** The swappable policy kernel of the online engine.

    {!Policy.t} is a plain record of settings; a {e kernel} packages it
    with the decision {e closures} the engine consults at run time —
    which events trigger a β recomputation, how long a failed task
    backs off, whether retries shrink their allocation — plus a pair of
    per-kernel observability counters. The engine holds exactly one
    active kernel and can swap it mid-run ({!Engine.set_kernel}), which
    is what the A/B-comparison and what-if consumers build on: the
    kernel object is the unit of replacement, the engine never
    hardwires a decision the kernel could make.

    {!default} reproduces the historical engine behaviour decision for
    decision — same triggers, same exponential backoff, same optional
    halving shrink — so running with it is bit-identical to the
    pre-kernel engine.

    {b Contract.} The [Arrival], [Task_failed], [Proc_down] and
    [Proc_up] triggers are load-bearing: an arrival that never
    schedules anything deadlocks the run, and fault events must remap
    the killed/failed work. Every kernel this module builds answers
    [true] for all four; a hand-rolled [reschedules_on] that does not
    is unsound under the corresponding events. [Departure] and
    [Task_finish] are genuinely optional (they trade schedule quality
    against rescheduling cost). *)

type trigger =
  | Arrival
  | Departure
  | Task_finish
  | Task_failed
  | Proc_down
  | Proc_up

val trigger_label : trigger -> string
(** The label the engine logs as the reschedule's cause
    (["arrival"], ["departure"], …). *)

type t = {
  name : string;  (** registry/reporting name; counters intern on it *)
  policy : Policy.t;
      (** strategy, mapper config, fault budget and malleability model
          — everything the kernel does not override by closure *)
  reschedules_on : trigger -> bool;
      (** which event kinds force a β recomputation (see the contract
          above for the four mandatory kinds) *)
  backoff : failures:int -> float;
      (** seconds a task waits before retry number [failures] *)
  shrink : (failures:int -> procs:int -> int) option;
      (** per-retry allocation shrink; [None] means allocations are
          never touched (the common case — keeping it an option lets
          the engine skip a per-task rewrite pass entirely) *)
  resize : (active:int -> width:int -> cap:int -> int) option;
      (** malleability trigger: target width for a running segment of
          [width] processors while [active] applications are in the
          system ([cap] is the feasibility ceiling the engine computed:
          free same-cluster processors plus the current width).
          Consulted only when the policy carries a
          {!Policy.t.malleability} model; [None] falls back to the
          model's own thresholds
          ({!Mcs_sched.Malleability.target_width}) *)
  c_reschedules : Mcs_obs.Obs.counter;
  c_remapped : Mcs_obs.Obs.counter;
}

val make :
  ?name:string ->
  ?reschedules_on:(trigger -> bool) ->
  ?backoff:(failures:int -> float) ->
  ?shrink:(failures:int -> procs:int -> int) ->
  ?resize:(active:int -> width:int -> cap:int -> int) ->
  Policy.t ->
  t
(** Kernel over [policy] with any decision closure overridden; the
    defaults reproduce the engine's historical behaviour (triggers from
    the policy's flags, exponential backoff [base·2^(k-1)], halving
    shrink iff the policy's [shrink_on_retry]). [name] defaults to
    ["custom"]. *)

val default : Policy.t -> t
(** [make ~name:"default" policy] — the engine's behaviour before
    kernels existed, bit for bit. *)

val names : string list
(** Registry names accepted by {!of_name} — what the CLIs advertise for
    [--policy]. *)

val of_name : string -> base:Policy.t -> t
(** Derive a registered kernel from a base policy: ["default"] (the
    policy's own flags), ["static"] (arrival-only optional triggers),
    ["eager"] (reschedule on every event, task finishes included),
    ["linear-backoff"] (retry [k] waits [base·k]), ["shrink-retry"]
    (halve a task's allocation per transient failure even if the base
    policy does not). @raise Invalid_argument on an unknown name. *)

val wants : t -> trigger -> bool
(** Whether the kernel reschedules on this trigger. *)

val backoff : t -> failures:int -> float
(** Backoff before retry number [failures] (≥ 1). *)

val shrink : t -> failures:int -> procs:int -> int
(** Allocation for a task with [failures] transient failures, given its
    nominal allocation [procs]; identity when the kernel never
    shrinks. *)

val shrinks : t -> bool
(** Whether {!shrink} can ever differ from the identity — lets the
    engine skip the rewrite pass (and its copies) entirely. *)

val resize_target :
  t ->
  Mcs_sched.Malleability.t ->
  active:int ->
  width:int ->
  cap:int ->
  int
(** Target width for a running segment under malleability model [m]:
    the kernel's [resize] closure when present, the model's own
    thresholds otherwise. Equal to [width] means "leave it alone"; the
    engine additionally clamps to what is actually feasible. *)
