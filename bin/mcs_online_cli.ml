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
    kernel_name checkpoint swap_at swap_to what_if what_if_at csv json gantt
    check faults mttf mttr task_fail_p granularity horizon max_retries backoff
    shrink malleable resize_quantum redist_cost min_width shrink_above
    grow_below profile profile_format =
  Obs_cli.scoped ~profile ~format:profile_format @@ fun () ->
  let platform =
    match Mcs_platform.Grid5000.by_name site with
    | Some p -> p
    | None ->
      prerr_endline ("unknown site: " ^ site ^ " (lille|nancy|rennes|sophia)");
      exit 2
  in
  let strategy =
    match Strategy.of_short_name strategy with
    | Ok s -> s
    | Error m ->
      prerr_endline m;
      exit 2
  in
  let family =
    match Workload.family_of_string family with
    | Ok f -> f
    | Error m ->
      prerr_endline m;
      exit 2
  in
  let rng = Mcs_prng.Prng.create ~seed in
  let ptgs = Workload.draw rng family ~count in
  let release = Array.make count 0. in
  let clock = ref 0. in
  List.iteri
    (fun i _ ->
      if i > 0 then begin
        clock := !clock +. Mcs_prng.Prng.exponential rng ~mean:mean_interarrival;
        release.(i) <- !clock
      end)
    ptgs;
  let apps = List.mapi (fun i ptg -> (ptg, release.(i))) ptgs in
  let fault_scenario =
    if not faults then None
    else begin
      let granularity =
        match granularity with
        | "proc" -> Fault.Proc
        | "cluster" -> Fault.Cluster
        | g ->
          prerr_endline ("unknown fault granularity: " ^ g ^ " (proc|cluster)");
          exit 2
      in
      let config =
        { Fault.mttf; mttr; task_fail_p; granularity; horizon }
      in
      match Fault.generate ~seed platform config with
      | s -> Some s
      | exception Invalid_argument m ->
        prerr_endline m;
        exit 2
    end
  in
  let fault_policy =
    { Policy.max_retries; backoff_base = backoff; shrink_on_retry = shrink }
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
  let policy =
    match
      Policy.make ~faults:fault_policy ?malleability
        ~reschedule_on_departure:(not static)
        ~reschedule_on_task_finish:finish_resched strategy
    with
    | p -> p
    | exception Invalid_argument m ->
      prerr_endline m;
      exit 2
  in
  let kernel_of name =
    match Mcs_online.Policy_kernel.of_name name ~base:policy with
    | k -> k
    | exception Invalid_argument m ->
      prerr_endline m;
      exit 2
  in
  let kernel = kernel_of kernel_name in
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
     diffs), a policy swap ([set_kernel] with an immediate remap), and
     a what-if speculation (adopt the candidate kernel only if the
     cloned trial improves the makespan). *)
  let actions =
    List.sort (fun (a, _) (b, _) -> Float.compare a b)
      ((match checkpoint with Some t -> [ (t, `Checkpoint) ] | None -> [])
      @ (match swap_at with Some t -> [ (t, `Swap) ] | None -> [])
      @
      match what_if with Some n -> [ (what_if_at, `What_if n) ] | None -> [])
  in
  let r =
    match
      let session =
        ref
          (Engine.create ~log ?check:check_sink ?faults:fault_scenario ~kernel
             ~policy platform apps)
      in
      List.iter
        (fun (time, action) ->
          Engine.advance ~upto:time !session;
          match action with
          | `Checkpoint ->
            let snap = Engine.snapshot !session in
            session := Engine.restore ~log ?check:check_sink snap;
            Printf.eprintf "checkpoint/restore at t=%g\n" time
          | `Swap ->
            Engine.set_kernel ~reschedule:true !session (kernel_of swap_to);
            Printf.eprintf "policy swap to %s at t=%g\n" swap_to time
          | `What_if name ->
            let sp = Engine.what_if !session (kernel_of name) in
            Printf.eprintf
              "what-if %s at t=%g: baseline=%.17g candidate=%.17g %s\n" name
              time sp.Engine.baseline_makespan sp.Engine.candidate_makespan
              (if sp.Engine.adopted then "adopted" else "kept incumbent"))
        actions;
      Engine.advance !session;
      Engine.result !session
    with
    | r -> r
    | exception Invalid_argument m ->
      prerr_endline m;
      exit 2
  in
  if !violations > 0 then begin
    Printf.eprintf "invariant check: %d errors\n" !violations;
    exit 1
  end;
  (match Schedule.validate ~platform r.Engine.schedules with
  | Ok () -> ()
  | Error v ->
    prerr_endline ("internal error, invalid schedule: " ^ v.Schedule.message);
    exit 1);
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
       & info [ "site" ] ~doc:"lille, nancy, rennes or sophia")

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

let kernel_name =
  Arg.(value & opt string "default"
       & info [ "policy" ]
           ~doc:
             (Printf.sprintf "policy kernel governing the engine: %s"
                (String.concat ", " Mcs_online.Policy_kernel.names)))

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
             "swap the active policy kernel to --swap-to at this virtual \
              time (with an immediate remap, logged as 'policy_swap')")

let swap_to =
  Arg.(value & opt string "eager"
       & info [ "swap-to" ] ~doc:"kernel name --swap-at switches to")

let what_if =
  Arg.(value & opt (some string) None
       & info [ "what-if" ]
           ~doc:
             "speculatively try this kernel at --what-if-at on a cloned \
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
           ~doc:"retry backoff base, seconds (retry k waits base*2^(k-1))")

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
      $ static $ finish_resched $ kernel_name $ checkpoint $ swap_at
      $ swap_to $ what_if $ what_if_at $ csv $ json $ gantt $ check $ faults
      $ mttf $ mttr $ task_fail_p $ granularity $ horizon $ max_retries
      $ backoff $ shrink $ malleable $ resize_quantum $ redist_cost
      $ min_width $ shrink_above $ grow_below $ Obs_cli.profile
      $ Obs_cli.profile_format)

let () = exit (Cmd.eval cmd)
