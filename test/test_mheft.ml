module Platform = Mcs_platform.Platform
module Grid5000 = Mcs_platform.Grid5000
module Task = Mcs_taskmodel.Task
module Builder = Mcs_ptg.Builder
module Prng = Mcs_prng.Prng
open Mcs_sched

let check_float = Alcotest.(check (float 1e-6))

let seconds_task ?(alpha = 0.) seconds =
  Task.make ~data:(seconds *. 1e9) ~complexity:(Stencil 1.) ~alpha

let random_ptg ?(tasks = 25) seed =
  let rng = Prng.create ~seed in
  Mcs_ptg.Random_gen.generate rng
    { Mcs_ptg.Random_gen.default with tasks }

let toy_platform ?(procs = 8) ?(gflops = 1.) () =
  Platform.make ~name:"toy"
    [ { Platform.cluster_name = "c0"; procs; gflops; switch = 0 } ]

let test_valid_schedules () =
  let platform = Grid5000.sophia () in
  for seed = 0 to 4 do
    let ptg = random_ptg seed in
    let sched = Mheft.schedule platform ptg in
    Mcs_check.Check.(fail_on_error (analyze platform [ sched ]))
  done

let test_heft_one_proc_each () =
  let platform = Grid5000.lille () in
  let ptg = random_ptg 9 in
  let sched = Mheft.schedule_heft platform ptg in
  Array.iter
    (fun pl ->
      Alcotest.(check bool) "at most one processor" true
        (Array.length pl.Schedule.procs <= 1))
    sched.Schedule.placements;
  Mcs_check.Check.(fail_on_error (analyze platform [ sched ]))

let test_mheft_beats_heft_on_parallel_tasks () =
  (* A single highly parallel task: M-HEFT allocates many processors,
     HEFT cannot. *)
  let platform = toy_platform ~procs:16 () in
  let tasks = [| seconds_task ~alpha:0.05 64. |] in
  let ptg = Builder.build ~id:0 ~name:"one" ~tasks ~edges:[] in
  let mheft = (Mheft.schedule platform ptg).Schedule.makespan in
  let heft = (Mheft.schedule_heft platform ptg).Schedule.makespan in
  check_float "heft is sequential" 64. heft;
  Alcotest.(check bool) "mheft parallelises" true (mheft < 10.)

let test_efficiency_bound_restrains_allocation () =
  let platform = toy_platform ~procs:16 () in
  (* alpha = 0.2: efficiency at p procs is 1/(0.2p + 0.8). 0.5 efficiency
     requires p <= 6. *)
  let tasks = [| seconds_task ~alpha:0.2 64. |] in
  let ptg = Builder.build ~id:0 ~name:"one" ~tasks ~edges:[] in
  let sched =
    Mheft.schedule
      ~options:{ Mheft.default_options with min_efficiency = 0.5 }
      platform ptg
  in
  Alcotest.(check bool) "allocation bounded by efficiency" true
    (Array.length (Schedule.placement sched 0).Schedule.procs <= 6);
  let pure = Mheft.schedule platform ptg in
  Alcotest.(check bool) "pure mheft uses more" true
    (Array.length (Schedule.placement pure 0).Schedule.procs
    > Array.length (Schedule.placement sched 0).Schedule.procs)

let test_max_fraction () =
  let platform = toy_platform ~procs:16 () in
  let tasks = [| seconds_task ~alpha:0. 64. |] in
  let ptg = Builder.build ~id:0 ~name:"one" ~tasks ~edges:[] in
  let sched =
    Mheft.schedule
      ~options:{ Mheft.default_options with max_fraction = 0.25 }
      platform ptg
  in
  Alcotest.(check int) "quarter of the cluster" 4
    (Array.length (Schedule.placement sched 0).Schedule.procs)

let test_options_validation () =
  let platform = toy_platform () in
  let ptg = random_ptg 1 in
  let raises options =
    try
      ignore (Mheft.schedule ~options platform ptg);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "fraction 0" true
    (raises { Mheft.default_options with max_fraction = 0. });
  Alcotest.(check bool) "fraction > 1" true
    (raises { Mheft.default_options with max_fraction = 1.5 });
  Alcotest.(check bool) "efficiency > 1" true
    (raises { Mheft.default_options with min_efficiency = 2. });
  Alcotest.(check bool) "max_procs 0" true
    (raises { Mheft.default_options with max_procs = Some 0 })

let test_respects_dependencies () =
  let platform = Grid5000.nancy () in
  let ptg = random_ptg ~tasks:40 33 in
  let sched = Mheft.schedule platform ptg in
  let dag = ptg.Mcs_ptg.Ptg.dag in
  for v = 0 to Mcs_dag.Dag.node_count dag - 1 do
    Array.iter
      (fun (u, _) ->
        Alcotest.(check bool) "pred finishes first" true
          (sched.Schedule.placements.(u).Schedule.finish
          <= sched.Schedule.placements.(v).Schedule.start +. 1e-9))
      (Mcs_dag.Dag.preds dag v)
  done

let qcheck_mheft_no_worse_than_heft =
  QCheck.Test.make
    ~name:"M-HEFT never loses to HEFT by more than rounding" ~count:15
    QCheck.(int_range 0 500)
    (fun seed ->
      let platform = Grid5000.lille () in
      let ptg = random_ptg seed in
      let m = (Mheft.schedule platform ptg).Schedule.makespan in
      let h = (Mheft.schedule_heft platform ptg).Schedule.makespan in
      (* HEFT's space is included in M-HEFT's greedy search; greedy order
         effects can cost a little, but not much. *)
      m <= 1.2 *. h)

let suite =
  [
    ( "sched.mheft",
      [
        Alcotest.test_case "valid schedules" `Quick test_valid_schedules;
        Alcotest.test_case "heft uses one proc" `Quick test_heft_one_proc_each;
        Alcotest.test_case "mheft beats heft" `Quick
          test_mheft_beats_heft_on_parallel_tasks;
        Alcotest.test_case "efficiency bound" `Quick
          test_efficiency_bound_restrains_allocation;
        Alcotest.test_case "max fraction" `Quick test_max_fraction;
        Alcotest.test_case "options validation" `Quick test_options_validation;
        Alcotest.test_case "dependencies" `Quick test_respects_dependencies;
        QCheck_alcotest.to_alcotest qcheck_mheft_no_worse_than_heft;
      ] );
  ]
