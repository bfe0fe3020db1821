(* End-to-end regression pin: a fixed scenario whose metrics must stay
   bit-stable run to run. If an intentional algorithm change shifts these
   values, re-derive them and update — the test exists to make such
   shifts visible, not to forbid them. *)

module Strategy = Mcs_sched.Strategy
module Runner = Mcs_experiments.Runner
module Workload = Mcs_experiments.Workload

let golden_scenario () =
  let platform = Mcs_platform.Grid5000.rennes () in
  let rng = Mcs_prng.Prng.create ~seed:20090525 in
  let ptgs = Workload.draw rng Workload.Random_mixed_scenarios ~count:4 in
  (platform, ptgs)

let test_golden_metrics () =
  let platform, ptgs = golden_scenario () in
  let results =
    Runner.evaluate platform ptgs
      [ Strategy.Selfish; Strategy.Equal_share;
        Strategy.Weighted (Strategy.Width, 0.5) ]
  in
  let expected =
    [
      ("S", 1.212906003, 130.727380174, 110.452759751);
      ("ES", 0.472259310, 121.325628416, 77.307052503);
      ("WPS-width(0.5)", 0.394803788, 120.820474511, 75.745765328);
    ]
  in
  List.iter2
    (fun r (name, unfairness, global, avg) ->
      Alcotest.(check string) "strategy" name (Strategy.name r.Runner.strategy);
      Alcotest.(check (float 1e-6)) (name ^ " unfairness") unfairness
        r.Runner.unfairness;
      Alcotest.(check (float 1e-4)) (name ^ " global") global
        r.Runner.global_makespan;
      Alcotest.(check (float 1e-4)) (name ^ " avg") avg r.Runner.avg_makespan)
    results expected

let test_golden_expected_ordering () =
  (* The paper-shaped relations on this scenario, robust to small
     algorithm changes (unlike the exact pins above). *)
  let platform, ptgs = golden_scenario () in
  let results =
    Runner.evaluate platform ptgs
      [ Strategy.Selfish; Strategy.Equal_share;
        Strategy.Weighted (Strategy.Width, 0.5) ]
  in
  match results with
  | [ s; es; wps ] ->
    Alcotest.(check bool) "ES fairer than S" true
      (es.Runner.unfairness < s.Runner.unfairness);
    Alcotest.(check bool) "WPS-width fairest" true
      (wps.Runner.unfairness < es.Runner.unfairness)
  | _ -> Alcotest.fail "three results expected"

let test_full_pipeline_all_families_valid () =
  List.iter
    (fun family ->
      List.iter
        (fun platform ->
          let rng = Mcs_prng.Prng.create ~seed:314 in
          let ptgs = Workload.draw rng family ~count:3 in
          let schedules =
            Mcs_sched.Pipeline.schedule_concurrent
              ~strategy:(Strategy.Weighted (Strategy.Work, 0.7))
              platform ptgs
          in
          Mcs_check.Check.(fail_on_error (analyze platform schedules));
          let sim = Mcs_sim.Replay.run platform schedules in
          Array.iter
            (fun m ->
              Alcotest.(check bool) "positive makespan" true (m > 0.))
            sim.Mcs_sim.Replay.makespans)
        (Mcs_platform.Grid5000.all ()))
    [ Workload.Random_mixed_scenarios; Workload.Fft_ptgs;
      Workload.Strassen_ptgs ]

let suite =
  [
    ( "integration",
      [
        Alcotest.test_case "golden metrics" `Quick test_golden_metrics;
        Alcotest.test_case "golden ordering" `Quick
          test_golden_expected_ordering;
        Alcotest.test_case "all families, all platforms" `Quick
          test_full_pipeline_all_families_valid;
      ] );
  ]
