type backoff = Exponential | Linear

type fault_policy = {
  max_retries : int;
  backoff_base : float;
  backoff : backoff;
  shrink_on_retry : bool;
}

let default_faults =
  {
    max_retries = 3;
    backoff_base = 5.;
    backoff = Exponential;
    shrink_on_retry = false;
  }

type t = {
  name : string;
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
  (* The longest exponential backoff, base·2^(max_retries−1), must be a
     finite delay (it bounds the linear one); NaN fails the
     comparison. *)
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
    name = "default";
    strategy;
    config;
    reschedule_on_departure;
    reschedule_on_task_finish;
    faults;
    malleability;
  }

let retry_delay f ~failures =
  match f.backoff with
  | Exponential -> f.backoff_base *. Float.pow 2. (float_of_int (failures - 1))
  | Linear -> f.backoff_base *. float_of_int failures

(* The registry behind the CLIs' [--policy NAME]. Every entry keeps the
   caller's strategy, mapper options and fault budget; the name
   overrides one group of fields. Every override keeps [make]'s
   invariants, so the result needs no re-validation. *)
let names = [ "default"; "static"; "eager"; "linear-backoff"; "shrink-retry" ]

let of_name name ~base =
  match name with
  | "default" -> { base with name }
  | "static" ->
    {
      base with
      name;
      reschedule_on_departure = false;
      reschedule_on_task_finish = false;
    }
  | "eager" ->
    {
      base with
      name;
      reschedule_on_departure = true;
      reschedule_on_task_finish = true;
    }
  | "linear-backoff" ->
    { base with name; faults = { base.faults with backoff = Linear } }
  | "shrink-retry" ->
    { base with name; faults = { base.faults with shrink_on_retry = true } }
  | _ ->
    invalid_arg
      (Printf.sprintf "Policy.of_name: unknown policy %S (expected %s)" name
         (String.concat ", " names))
