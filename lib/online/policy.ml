type fault_policy = {
  max_retries : int;
  backoff_base : float;
  shrink_on_retry : bool;
}

let default_faults =
  { max_retries = 3; backoff_base = 5.; shrink_on_retry = false }

type t = {
  strategy : Mcs_sched.Strategy.t;
  config : Mcs_sched.Pipeline.config;
  reschedule_on_departure : bool;
  reschedule_on_task_finish : bool;
  faults : fault_policy;
  malleability : Mcs_sched.Malleability.t option;
}

let make ?(config = Mcs_sched.Pipeline.default_config)
    ?(faults = default_faults)
    ?(reschedule_on_departure = true) ?(reschedule_on_task_finish = false)
    ?malleability strategy =
  if faults.max_retries < 0 then
    invalid_arg "Policy.make: negative max_retries";
  (* The longest default backoff, base·2^(max_retries−1), must be a
     finite delay; NaN fails the comparison. *)
  if
    not
      (faults.backoff_base >= 0.
      && Float.is_finite
           (Float.ldexp faults.backoff_base (faults.max_retries - 1)))
  then invalid_arg "Policy.make: ill-formed backoff_base";
  (* Validate the trigger combination here, once: task-finish triggers
     subsume departures (a departure is the finish of the exit task),
     so reacting to every finish while ignoring the completions that
     free whole β shares is incoherent — reject it rather than let the
     engine run a policy nobody can have meant. *)
  if reschedule_on_task_finish && not reschedule_on_departure then
    invalid_arg "Policy.make: reschedule_on_task_finish without \
                 reschedule_on_departure";
  (match malleability with
  | Some m -> Mcs_sched.Malleability.validate m
  | None -> ());
  {
    strategy;
    config;
    reschedule_on_departure;
    reschedule_on_task_finish;
    faults;
    malleability;
  }

let static ?config ?faults ?malleability strategy =
  make ?config ?faults ~reschedule_on_departure:false
    ~reschedule_on_task_finish:false ?malleability strategy
