(* Online scheduling CLI: draw a scenario with Poisson arrivals, run the
   event-driven engine, and stream one JSON log line per event (JSONL)
   to stdout for observability tooling, followed by a summary line.
   Optional CSV/JSON trace export includes the release times. *)

open Cmdliner
module Strategy = Mcs_sched.Strategy
module Schedule = Mcs_sched.Schedule
module Engine = Mcs_online.Engine
module Policy = Mcs_online.Policy
module Log = Mcs_online.Log
module Fault = Mcs_fault.Fault

let run (sc : Flags.scenario) mean_interarrival policy_name plan exports
    gantt check faults fault_policy malleability profiled =
  profiled @@ fun () ->
  let platform = sc.platform and strategy = sc.strategy in
  let apps = Flags.stream sc ~mean:mean_interarrival in
  let release = Array.of_list (List.map snd apps) in
  let fault_scenario =
    Option.map
      (fun config ->
        Cli.checked (fun () -> Fault.generate ~seed:sc.seed platform config))
      faults
  in
  let base =
    Cli.checked (fun () ->
        Policy.make ~faults:fault_policy ?malleability strategy)
  in
  let policy_of name = Cli.checked (fun () -> Policy.of_name name ~base) in
  let policy = policy_of policy_name in
  let log e = print_endline (Log.to_json e) in
  (* With --check, every reschedule generation is audited by the
     invariant analyzer; violations are reported and fail the run. *)
  let violations = ref 0 in
  let checker diags =
    List.iter
      (fun d -> prerr_endline (Mcs_check.Diagnostic.to_string d))
      (Mcs_check.Diagnostic.sort diags);
    violations :=
      !violations + List.length (Mcs_check.Diagnostic.errors diags)
  in
  let check_sink = if check then Some checker else None in
  let r =
    Cli.checked @@ fun () ->
    let session =
      ref
        (Engine.create ~log ?check:check_sink ?faults:fault_scenario ~policy
           platform apps)
    in
    List.iter
      (fun (time, action) ->
        Engine.advance ~upto:time !session;
        match action with
        | `Checkpoint ->
          let snap = Engine.snapshot !session in
          session := Engine.restore ~log ?check:check_sink snap;
          Printf.eprintf "checkpoint/restore at t=%g\n" time
        | `Swap name ->
          Engine.set_policy !session (policy_of name);
          Printf.eprintf "policy swap to %s at t=%g\n" name time
        | `What_if name ->
          let sp = Engine.what_if !session (policy_of name) in
          Printf.eprintf
            "what-if %s at t=%g: baseline=%.17g candidate=%.17g %s\n" name
            time sp.Engine.baseline_makespan sp.Engine.candidate_makespan
            (if sp.Engine.adopted then "adopted" else "kept incumbent"))
      plan;
    Engine.advance !session;
    Engine.result !session
  in
  if !violations > 0 then begin
    Printf.eprintf "invariant check: %d errors\n" !violations;
    exit 1
  end;
  Cli.validated ~release platform r.Engine.schedules;
  let join fmt a =
    String.concat "," (Array.to_list (Array.map fmt a))
  in
  (* The fault fields appear only under a non-empty fault process, so a
     zero-rate faulted run stays byte-identical to an un-faulted one. *)
  let fault_suffix =
    match fault_scenario with
    | Some s when not (Fault.is_empty s) ->
      Printf.sprintf
        ",\"outages\":%d,\"kills\":%d,\"task_failures\":%d,\
         \"fault_events\":%d"
        (List.length s.Fault.outages)
        r.Engine.stats.Engine.kills r.Engine.stats.Engine.task_failures
        r.Engine.stats.Engine.fault_events
    | Some _ | None -> ""
  in
  (* Likewise the resize counter appears only when a resize actually
     executed: an inert malleable run (e.g. a quantum past every
     finish) stays byte-identical to a moldable one (CI diffs it). *)
  let resize_suffix =
    if r.Engine.stats.Engine.resizes > 0 then
      Printf.sprintf ",\"resizes\":%d" r.Engine.stats.Engine.resizes
    else ""
  in
  Printf.printf
    "{\"event\":\"summary\",\"strategy\":\"%s\",\"site\":\"%s\",\
     \"apps\":%d,\"releases\":[%s],\"betas\":[%s],\"responses\":[%s],\
     \"events_processed\":%d,\"events_pushed\":%d,\"reschedules\":%d,\
     \"remapped_tasks\":%d%s%s}\n"
    (Strategy.name strategy) sc.site sc.count
    (join (Printf.sprintf "%.17g") release)
    (join (Printf.sprintf "%.17g") r.Engine.betas)
    (join (Printf.sprintf "%.17g") r.Engine.responses)
    r.Engine.stats.Engine.events_processed
    r.Engine.stats.Engine.events_pushed r.Engine.stats.Engine.reschedules
    r.Engine.stats.Engine.remapped_tasks fault_suffix resize_suffix;
  if gantt then
    prerr_string (Schedule.gantt ~platform r.Engine.schedules);
  Flags.export exports
    ~csv:(fun () -> Mcs_sched.Trace.to_csv ~release r.Engine.schedules)
    ~json:(fun () -> Mcs_sched.Trace.to_json ~release r.Engine.schedules)

(* The mid-run interventions, sorted by virtual time; the session
   applies each once that time is reached: a checkpoint (the session is
   snapshotted, dropped, and the run continues on the restored copy —
   output identical to an uninterrupted run, which CI diffs), a policy
   swap ([set_policy] with an immediate remap), and a what-if
   speculation (adopt the candidate policy only if the cloned trial
   improves the makespan). Names and times are checked here, at parse
   time, even when their switch is off. *)
let plan =
  let make checkpoint swap_at swap_to what_if what_if_at =
    List.sort (fun (a, _) (b, _) -> Float.compare a b)
      (List.filter_map Fun.id
         [
           Option.map (fun t -> (t, `Checkpoint)) checkpoint;
           Option.map (fun t -> (t, `Swap swap_to)) swap_at;
           Option.map (fun n -> (what_if_at, `What_if n)) what_if;
         ])
  in
  Term.(
    const make
    $ Arg.(value & opt (some Flags.time_conv) None
           & info [ "checkpoint" ]
               ~doc:
                 "snapshot the engine at this virtual time and continue on \
                  the restored copy — the output is bit-identical to an \
                  uninterrupted run (CI diffs it)")
    $ Arg.(value & opt (some Flags.time_conv) None
           & info [ "swap-at" ]
               ~doc:
                 "swap the active policy to --swap-to at this virtual time \
                  (with an immediate remap, logged as 'policy_swap')")
    $ Arg.(value & opt Flags.policy_conv "eager"
           & info [ "swap-to" ] ~doc:"policy name --swap-at switches to")
    $ Arg.(value & opt (some Flags.policy_conv) None
           & info [ "what-if" ]
               ~doc:
                 "speculatively try this policy at --what-if-at on a cloned \
                  session and adopt it only if it improves the makespan")
    $ Arg.(value & opt Flags.time_conv 0.
           & info [ "what-if-at" ] ~doc:"virtual time of the --what-if trial"))

let gantt =
  Arg.(value & flag
       & info [ "gantt" ] ~doc:"print a text Gantt chart to stderr")

(* The retry budget of the fault policy; --policy picks its shape. *)
let fault_policy =
  let make max_retries backoff_base =
    { Policy.default_faults with Policy.max_retries; backoff_base }
  in
  Term.(
    const make
    $ Arg.(value & opt int 3
           & info [ "max-retries" ]
               ~doc:
                 "transient failures tolerated per task before the next \
                  attempt is carried through")
    $ Arg.(value & opt float 5.
           & info [ "backoff" ]
               ~doc:
                 "retry backoff base, seconds (retry k waits base*2^(k-1), \
                  or base*k under --policy linear-backoff)"))

let () =
  Cli.eval "mcs_online"
    ~doc:"run the event-driven online scheduler and stream JSON event logs"
    Term.(
      const run
      $ Flags.scenario ~site:"rennes" ~strategy:"WPS-work" ~count:4
      $ Flags.mean_interarrival 30.
      $ Flags.policy ~default:"default"
          ~doc:"rescheduling policy, which picks the triggers and retry shape"
      $ plan $ Flags.exports $ gantt
      $ Flags.check
          ~doc:
            "audit every reschedule with the invariant analyzer, then \
             the execution log (FAULT001-003 and MAL001-003, in every \
             mode), and exit non-zero on any violated rule"
      $ Flags.faults ~full:true
          ~doc:
            "inject a seeded fault process: processor outages drawn from \
             --mttf/--mttr and transient task failures from --task-fail-p \
             (the scenario reuses --seed)"
      $ fault_policy
      $ Flags.malleable ~full:true
          ~doc:
            "let the engine grow/shrink running tasks at resize points \
             (without this flag tasks are moldable: widths are fixed at \
             start, bit-identical to the pre-malleability engine)"
      $ Obs_cli.profiled)
