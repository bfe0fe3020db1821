(* Online scheduling CLI: draw a scenario with Poisson arrivals, run the
   event-driven engine, and stream one JSON log line per event (JSONL)
   to stdout for observability tooling, followed by a summary line.
   Optional CSV/JSON trace export includes the release times. *)

open Cmdliner
module Strategy = Mcs_sched.Strategy
module Schedule = Mcs_sched.Schedule
module Workload = Mcs_experiments.Workload
module Engine = Mcs_online.Engine
module Policy = Mcs_online.Policy
module Log = Mcs_online.Log
module Fault = Mcs_fault.Fault

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.eprintf "wrote %s\n" path

let run site strategy family count seed mean_interarrival static finish_resched
    policy_name checkpoint swap_at swap_to what_if what_if_at csv json gantt
    check faults mttf mttr task_fail_p granularity horizon max_retries backoff
    shrink malleable resize_quantum redist_cost min_width shrink_above
    grow_below profile profile_format =
  Obs_cli.scoped ~profile ~format:profile_format @@ fun () ->
  let platform = Cli.ok (Mcs_platform.Grid5000.by_name site) in
  let strategy = Cli.ok (Strategy.of_short_name strategy) in
  let family = Cli.ok (Workload.family_of_string family) in
  let rng = Mcs_prng.Prng.create ~seed in
  let ptgs = Cli.checked (fun () -> Workload.draw rng family ~count) in
  let release = Workload.releases rng ~count ~mean:mean_interarrival in
  let apps = List.mapi (fun i ptg -> (ptg, release.(i))) ptgs in
  let fault_scenario =
    if not faults then None
    else begin
      let granularity =
        match granularity with
        | "proc" -> Fault.Proc
        | "cluster" -> Fault.Cluster
        | g ->
          Cli.die ("unknown fault granularity: " ^ g ^ " (proc|cluster)")
      in
      let config =
        { Fault.mttf; mttr; task_fail_p; granularity; horizon }
      in
      Some (Cli.checked (fun () -> Fault.generate ~seed platform config))
    end
  in
  let fault_policy =
    {
      Policy.default_faults with
      Policy.max_retries;
      backoff_base = backoff;
      shrink_on_retry = shrink;
    }
  in
  let malleability =
    if not malleable then None
    else
      Some
        {
          Mcs_sched.Malleability.quantum = resize_quantum;
          redist_cost;
          min_width;
          max_width = max_int;
          shrink_active_above = shrink_above;
          grow_active_below = grow_below;
        }
  in
  let base =
    Cli.checked (fun () ->
        Policy.make ~faults:fault_policy ?malleability
          ~reschedule_on_departure:(not static)
          ~reschedule_on_task_finish:finish_resched strategy)
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
  (* The session runs through an ordered list of mid-run interventions,
     each applied once its virtual time is reached: a checkpoint (the
     session is snapshotted, dropped, and the run continues on the
     restored copy — output identical to an uninterrupted run, which CI
     diffs), a policy swap ([set_policy] with an immediate remap), and
     a what-if speculation (adopt the candidate policy only if the
     cloned trial improves the makespan). Names and times are checked
     here, before the first event is logged. *)
  let at flag t =
    if not (Float.is_finite t) then
      Cli.die (Printf.sprintf "%s: not a finite virtual time: %g" flag t);
    t
  in
  let actions =
    List.sort (fun (a, _) (b, _) -> Float.compare a b)
      ((match checkpoint with
       | Some t -> [ (at "--checkpoint" t, `Checkpoint) ]
       | None -> [])
      @ (match swap_at with
        | Some t -> [ (at "--swap-at" t, `Swap (policy_of swap_to)) ]
        | None -> [])
      @
      match what_if with
      | Some n -> [ (at "--what-if-at" what_if_at, `What_if (policy_of n)) ]
      | None -> [])
  in
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
        | `Swap p ->
          Engine.set_policy !session p;
          Printf.eprintf "policy swap to %s at t=%g\n" p.Policy.name time
        | `What_if p ->
          let sp = Engine.what_if !session p in
          Printf.eprintf
            "what-if %s at t=%g: baseline=%.17g candidate=%.17g %s\n"
            p.Policy.name time sp.Engine.baseline_makespan
            sp.Engine.candidate_makespan
            (if sp.Engine.adopted then "adopted" else "kept incumbent"))
      actions;
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
    (Strategy.name strategy) site count
    (join (Printf.sprintf "%.17g") release)
    (join (Printf.sprintf "%.17g") r.Engine.betas)
    (join (Printf.sprintf "%.17g") r.Engine.responses)
    r.Engine.stats.Engine.events_processed
    r.Engine.stats.Engine.events_pushed r.Engine.stats.Engine.reschedules
    r.Engine.stats.Engine.remapped_tasks fault_suffix resize_suffix;
  if gantt then
    prerr_string (Schedule.gantt ~platform r.Engine.schedules);
  (match csv with
  | Some path ->
    write_file path (Mcs_sched.Trace.to_csv ~release r.Engine.schedules)
  | None -> ());
  match json with
  | Some path ->
    write_file path (Mcs_sched.Trace.to_json ~release r.Engine.schedules)
  | None -> ()

let site =
  Arg.(value & opt string "rennes"
       & info [ "site" ]
           ~doc:(String.concat ", " Mcs_platform.Grid5000.names))

let strategy =
  Arg.(value & opt string "WPS-work"
       & info [ "strategy" ]
           ~doc:"S, ES, PS-cp, PS-width, PS-work, WPS-cp, WPS-width, WPS-work")

let family =
  Arg.(value & opt string "random"
       & info [ "family" ] ~doc:"random, fft or strassen")

let count =
  Arg.(value & opt int 4 & info [ "count" ] ~doc:"submitted applications")

let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"PRNG seed")

let mean_interarrival =
  Arg.(value & opt float 30.
       & info [ "mean-interarrival" ]
           ~doc:"mean of the Poisson inter-arrival times, seconds")

let static =
  Arg.(value & flag
       & info [ "static" ]
           ~doc:"recompute beta on arrivals only (no departure backfilling)")

let finish_resched =
  Arg.(value & flag
       & info [ "reschedule-on-finish" ]
           ~doc:
             "reschedule on every task finish as well as on departures \
              (rejected when combined with --static)")

let policy_name =
  Arg.(value & opt string "default"
       & info [ "policy" ]
           ~doc:
             (Printf.sprintf "named policy over the trigger and fault flags: %s"
                (String.concat ", " Policy.names)))

let checkpoint =
  Arg.(value & opt (some float) None
       & info [ "checkpoint" ]
           ~doc:
             "snapshot the engine at this virtual time and continue on the \
              restored copy — the output is bit-identical to an \
              uninterrupted run (CI diffs it)")

let swap_at =
  Arg.(value & opt (some float) None
       & info [ "swap-at" ]
           ~doc:
             "swap the active policy to --swap-to at this virtual time \
              (with an immediate remap, logged as 'policy_swap')")

let swap_to =
  Arg.(value & opt string "eager"
       & info [ "swap-to" ] ~doc:"policy name --swap-at switches to")

let what_if =
  Arg.(value & opt (some string) None
       & info [ "what-if" ]
           ~doc:
             "speculatively try this policy at --what-if-at on a cloned \
              session and adopt it only if it improves the makespan")

let what_if_at =
  Arg.(value & opt float 0.
       & info [ "what-if-at" ] ~doc:"virtual time of the --what-if trial")

let csv =
  Arg.(value & opt (some string) None
       & info [ "csv" ] ~doc:"export the schedules as CSV to this path")

let json =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~doc:"export the schedules as JSON to this path")

let gantt =
  Arg.(value & flag
       & info [ "gantt" ] ~doc:"print a text Gantt chart to stderr")

let check =
  Arg.(value & flag
       & info [ "check" ]
           ~doc:
             "audit every reschedule with the invariant analyzer (plus the \
              FAULT001-003 execution-log audit under --faults and the \
              MAL001-003 resize audit under --malleable) and exit \
              non-zero on any violated rule")

let faults =
  Arg.(value & flag
       & info [ "faults" ]
           ~doc:
             "inject a seeded fault process: processor outages drawn from \
              --mttf/--mttr and transient task failures from --task-fail-p \
              (the scenario reuses --seed)")

let mttf =
  Arg.(value & opt float Float.infinity
       & info [ "mttf" ]
           ~doc:
             "mean time to failure per unit, seconds ('inf' disables \
              outages)")

let mttr =
  Arg.(value & opt float 60.
       & info [ "mttr" ] ~doc:"mean time to repair, seconds")

let task_fail_p =
  Arg.(value & opt float 0.
       & info [ "task-fail-p" ]
           ~doc:"per-attempt transient task failure probability in [0,1]")

let granularity =
  Arg.(value & opt string "proc"
       & info [ "fault-granularity" ]
           ~doc:"failure unit: proc (independent processors) or cluster")

let horizon =
  Arg.(value & opt float 3600.
       & info [ "fault-horizon" ]
           ~doc:"no outage begins after this time, seconds")

let max_retries =
  Arg.(value & opt int 3
       & info [ "max-retries" ]
           ~doc:
             "transient failures tolerated per task before the next attempt \
              is carried through")

let backoff =
  Arg.(value & opt float 5.
       & info [ "backoff" ]
           ~doc:
             "retry backoff base, seconds (retry k waits base*2^(k-1), or \
              base*k under --policy linear-backoff)")

let shrink =
  Arg.(value & flag
       & info [ "shrink-on-retry" ]
           ~doc:"halve a task's allocation per transient failure")

let malleable =
  Arg.(value & flag
       & info [ "malleable" ]
           ~doc:
             "let the engine grow/shrink running tasks at resize points \
              (without this flag tasks are moldable: widths are fixed at \
              start, bit-identical to the pre-malleability engine)")

let resize_quantum =
  Arg.(value & opt float Mcs_sched.Malleability.default.quantum
       & info [ "resize-quantum" ]
           ~doc:
             "grid spacing of legal resize points, seconds (a running \
              segment may only be preempted at start + k*quantum)")

let redist_cost =
  Arg.(value & opt float Mcs_sched.Malleability.default.redist_cost
       & info [ "redist-cost" ]
           ~doc:"redistribution overhead per moved processor, seconds")

let min_width =
  Arg.(value & opt int 1
       & info [ "min-width" ]
           ~doc:"no resized segment runs on fewer processors")

let shrink_above =
  Arg.(value
       & opt int Mcs_sched.Malleability.default.shrink_active_above
       & info [ "shrink-above" ]
           ~doc:"shrink running tasks while more applications are active")

let grow_below =
  Arg.(value & opt int Mcs_sched.Malleability.default.grow_active_below
       & info [ "grow-below" ]
           ~doc:"grow running tasks while fewer applications are active")

let cmd =
  let doc =
    "run the event-driven online scheduler and stream JSON event logs"
  in
  Cmd.v
    (Cmd.info "mcs_online" ~doc)
    Term.(
      const run $ site $ strategy $ family $ count $ seed $ mean_interarrival
      $ static $ finish_resched $ policy_name $ checkpoint $ swap_at
      $ swap_to $ what_if $ what_if_at $ csv $ json $ gantt $ check $ faults
      $ mttf $ mttr $ task_fail_p $ granularity $ horizon $ max_retries
      $ backoff $ shrink $ malleable $ resize_quantum $ redist_cost
      $ min_width $ shrink_above $ grow_below $ Obs_cli.profile
      $ Obs_cli.profile_format)

let () = exit (Cmd.eval cmd)
