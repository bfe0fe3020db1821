(* Scheduling CLI: draw a scenario (family, count, seed), schedule it on
   a Grid'5000 subset under a chosen strategy, and print betas, the
   Gantt chart, and estimated vs simulated makespans. *)

open Cmdliner
module Strategy = Mcs_sched.Strategy
module Pipeline = Mcs_sched.Pipeline
module Schedule = Mcs_sched.Schedule
module Workload = Mcs_experiments.Workload

let run (sc : Flags.scenario) exports check profiled =
  profiled @@ fun () ->
  let platform = sc.platform and strategy = sc.strategy in
  let ptgs = Flags.draw sc in
  (* The scheduler's own allocation step, handed over through the
     check seam rather than recomputed. *)
  let prepared = ref None in
  let schedules =
    Pipeline.schedule_concurrent ~strategy
      ~check:(fun ~prepared:p _ -> prepared := Some p)
      platform ptgs
  in
  let prepared = Option.get !prepared in
  (if check then begin
     let diags =
       Mcs_check.Check.analyze_prepared ~strategy prepared platform schedules
     in
     List.iter
       (fun d -> prerr_endline (Mcs_check.Diagnostic.to_string d))
       (Mcs_check.Diagnostic.sort diags);
     Printf.eprintf "invariant check: %s\n" (Mcs_check.Diagnostic.summary diags);
     if Mcs_check.Diagnostic.has_errors diags then exit 1
   end
   else Cli.validated platform schedules);
  let sim = Mcs_sim.Replay.run platform schedules in
  Printf.printf "%s, %d %s applications, strategy %s\n\n" sc.site sc.count
    (Workload.family_name sc.family) (Strategy.name strategy);
  List.iteri
    (fun i sched ->
      Printf.printf
        "app %d: beta=%.3f estimated=%.2fs simulated=%.2fs (%s)\n" i
        prepared.Pipeline.betas.(i) sched.Schedule.makespan
        sim.Mcs_sim.Replay.makespans.(i)
        sched.Schedule.ptg.Mcs_ptg.Ptg.name)
    schedules;
  print_newline ();
  print_string (Schedule.gantt ~platform schedules);
  Flags.export exports
    ~csv:(fun () -> Mcs_sched.Trace.to_csv schedules)
    ~json:(fun () ->
      (* Embed the checker metadata so mcs_check can re-verify the β
         and allocation rules offline. *)
      let alloc =
        Array.map
          (fun (r : Mcs_sched.Allocation.result) -> r.procs)
          prepared.Pipeline.allocations
      in
      Mcs_sched.Trace.to_json ~betas:prepared.Pipeline.betas ~alloc schedules)

let () =
  Cli.eval "mcs_sched" ~doc:"schedule concurrent PTGs on a multi-cluster"
    Term.(
      const run
      $ Flags.scenario ~site:"rennes" ~strategy:"WPS-width" ~count:4
      $ Flags.exports
      $ Flags.check
          ~doc:
            "run the invariant analyzer over the produced schedules and \
             exit non-zero on any violated rule"
      $ Obs_cli.profiled)
