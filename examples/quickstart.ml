(* Quickstart: schedule two random parallel task graphs concurrently on
   the Rennes multi-cluster, print the resource constraints, the
   schedules and the simulated makespans.

   Run with: dune exec examples/quickstart.exe *)

module Ptg = Mcs_ptg.Ptg
module Strategy = Mcs_sched.Strategy
module Pipeline = Mcs_sched.Pipeline
module Schedule = Mcs_sched.Schedule

let () =
  (* 1. A platform: one of the paper's Grid'5000 subsets. *)
  let platform = Mcs_platform.Grid5000.rennes () in
  print_string (Mcs_platform.Platform.describe platform);
  print_newline ();

  (* 2. Two applications: random layered PTGs (20 and 50 tasks). *)
  let rng = Mcs_prng.Prng.create ~seed:42 in
  let small =
    Mcs_ptg.Random_gen.generate ~id:0 rng
      { Mcs_ptg.Random_gen.default with tasks = 20 }
  in
  let large =
    Mcs_ptg.Random_gen.generate ~id:1 rng
      { Mcs_ptg.Random_gen.default with tasks = 50; width = 0.8 }
  in
  List.iter (fun p -> Format.printf "%a@." Ptg.pp p) [ small; large ];
  print_newline ();

  (* 3. Two-step scheduling under the paper's WPS-work strategy:
     constrained allocation (SCRAP-MAX) then concurrent ready-list
     mapping with packing. *)
  let strategy = Strategy.Weighted (Strategy.Work, 0.7) in
  let prepared = Pipeline.prepare ~strategy platform [ small; large ] in
  Array.iteri
    (fun i beta -> Printf.printf "beta(app %d) = %.3f\n" i beta)
    prepared.Pipeline.betas;
  let schedules =
    Pipeline.schedule_concurrent ~strategy platform [ small; large ]
  in

  (* 4. Inspect the result: validity, Gantt chart, simulated makespans. *)
  (match
     Mcs_check.Diagnostic.errors (Mcs_check.Check.analyze platform schedules)
   with
  | [] -> print_endline "schedules: valid"
  | d :: _ ->
    print_endline ("schedules: INVALID - " ^ Mcs_check.Diagnostic.to_string d));
  print_newline ();
  print_string (Schedule.gantt ~platform schedules);
  print_newline ();
  let sim = Mcs_sim.Replay.run platform schedules in
  List.iteri
    (fun i sched ->
      Printf.printf
        "app %d: estimated makespan %.2f s, simulated %.2f s\n" i
        sched.Schedule.makespan
        sim.Mcs_sim.Replay.makespans.(i))
    schedules
