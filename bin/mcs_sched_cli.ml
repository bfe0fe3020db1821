(* Scheduling CLI: draw a scenario (family, count, seed), schedule it on
   a Grid'5000 subset under a chosen strategy, and print betas, the
   Gantt chart, and estimated vs simulated makespans. *)

open Cmdliner
module Strategy = Mcs_sched.Strategy
module Pipeline = Mcs_sched.Pipeline
module Schedule = Mcs_sched.Schedule
module Workload = Mcs_experiments.Workload

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.eprintf "wrote %s\n" path

let run site strategy family count seed csv json check profile profile_format =
  Obs_cli.scoped ~profile ~format:profile_format @@ fun () ->
  let platform = Cli.ok (Mcs_platform.Grid5000.by_name site) in
  let strategy = Cli.ok (Strategy.of_short_name strategy) in
  let family = Cli.ok (Workload.family_of_string family) in
  let rng = Mcs_prng.Prng.create ~seed in
  let ptgs = Cli.checked (fun () -> Workload.draw rng family ~count) in
  let prepared = Pipeline.prepare ~strategy platform ptgs in
  let schedules = Pipeline.schedule_concurrent ~strategy platform ptgs in
  (match Schedule.validate ~platform schedules with
  | Ok () -> ()
  | Error v ->
    prerr_endline ("internal error, invalid schedule: " ^ v.Schedule.message);
    exit 1);
  (if check then begin
     let diags =
       Mcs_check.Check.analyze_prepared ~strategy prepared platform schedules
     in
     List.iter
       (fun d -> prerr_endline (Mcs_check.Diagnostic.to_string d))
       (Mcs_check.Diagnostic.sort diags);
     Printf.eprintf "invariant check: %s\n" (Mcs_check.Diagnostic.summary diags);
     if Mcs_check.Diagnostic.has_errors diags then exit 1
   end);
  let sim = Mcs_sim.Replay.run platform schedules in
  Printf.printf "%s, %d %s applications, strategy %s\n\n" site count
    (Workload.family_name family) (Strategy.name strategy);
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
  (match csv with
  | Some path -> write_file path (Mcs_sched.Trace.to_csv schedules)
  | None -> ());
  match json with
  | Some path ->
    (* Embed the checker metadata so mcs_check can re-verify the β and
       allocation rules offline. *)
    let alloc =
      Array.map
        (fun (r : Mcs_sched.Allocation.result) -> r.Mcs_sched.Allocation.procs)
        prepared.Pipeline.allocations
    in
    write_file path
      (Mcs_sched.Trace.to_json ~betas:prepared.Pipeline.betas ~alloc schedules)
  | None -> ()

let site =
  Arg.(value & opt string "rennes"
       & info [ "site" ]
           ~doc:(String.concat ", " Mcs_platform.Grid5000.names))

let strategy =
  Arg.(value & opt string "WPS-width"
       & info [ "strategy" ]
           ~doc:"S, ES, PS-cp, PS-width, PS-work, WPS-cp, WPS-width, WPS-work")

let family =
  Arg.(value & opt string "random"
       & info [ "family" ] ~doc:"random, fft or strassen")

let count =
  Arg.(value & opt int 4 & info [ "count" ] ~doc:"concurrent applications")

let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"PRNG seed")

let csv =
  Arg.(value & opt (some string) None
       & info [ "csv" ] ~doc:"export the schedules as CSV to this path")

let json =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~doc:"export the schedules as JSON to this path")

let check =
  Arg.(value & flag
       & info [ "check" ]
           ~doc:
             "run the invariant analyzer over the produced schedules and \
              exit non-zero on any violated rule")

let cmd =
  let doc = "schedule concurrent PTGs on a multi-cluster" in
  Cmd.v
    (Cmd.info "mcs_sched" ~doc)
    Term.(
      const run $ site $ strategy $ family $ count $ seed $ csv $ json $ check
      $ Obs_cli.profile $ Obs_cli.profile_format)

let () = exit (Cmd.eval cmd)
