open Mcs_experiments
module Strategy = Mcs_sched.Strategy
module Prng = Mcs_prng.Prng

let test_workload_draw_counts () =
  let rng = Prng.create ~seed:1 in
  List.iter
    (fun family ->
      let ptgs = Workload.draw rng family ~count:4 in
      Alcotest.(check int)
        (Workload.family_name family ^ " count")
        4 (List.length ptgs);
      List.iteri
        (fun i p -> Alcotest.(check int) "ids in order" i p.Mcs_ptg.Ptg.id)
        ptgs)
    [
      Workload.Random_mixed_scenarios;
      Workload.Random_ptgs Mcs_taskmodel.Task.Class_matmul;
      Workload.Fft_ptgs;
      Workload.Strassen_ptgs;
    ]

let test_workload_strassen_family () =
  let rng = Prng.create ~seed:2 in
  let ptgs = Workload.draw rng Workload.Strassen_ptgs ~count:3 in
  List.iter
    (fun p ->
      Alcotest.(check int) "25 tasks" 25 (Mcs_ptg.Ptg.task_count p))
    ptgs

(* A negative or non-finite mean gap names itself instead of reaching
   the engine as an ill-formed release; a mean of 0 releases everything
   at 0. *)
let test_releases_mean () =
  let releases mean = Workload.releases (Prng.create ~seed:3) ~count:3 ~mean in
  List.iter
    (fun mean ->
      let message = Printf.sprintf "Workload.releases: mean = %g" mean in
      Alcotest.check_raises message (Invalid_argument message) (fun () ->
          ignore (releases mean)))
    [ -3.; Float.nan; Float.infinity ];
  Alcotest.(check (array (float 0.))) "mean 0" [| 0.; 0.; 0. |] (releases 0.)

let test_scenarios_shape_and_determinism () =
  let s1 =
    Sweep.scenarios ~family:Workload.Fft_ptgs ~count:3 ~runs:2 ~seed:7
  in
  let s2 =
    Sweep.scenarios ~family:Workload.Fft_ptgs ~count:3 ~runs:2 ~seed:7
  in
  Alcotest.(check int) "2 runs x 4 platforms" 8 (List.length s1);
  List.iter2
    (fun (p1, ptgs1) (p2, ptgs2) ->
      Alcotest.(check string) "same platform"
        (Mcs_platform.Platform.name p1)
        (Mcs_platform.Platform.name p2);
      List.iter2
        (fun a b ->
          Alcotest.(check (float 0.)) "same work" (Mcs_ptg.Ptg.work a)
            (Mcs_ptg.Ptg.work b))
        ptgs1 ptgs2)
    s1 s2

(* The kernel hands each scenario its index, divides every arm's
   makespan by the scenario's best and averages each field per arm:
   here arm 0 is always best and arm 1 twice as slow, and unfairness and
   the extra follow the indices 0..3 of one run's four scenarios. *)
let test_compare_kernel () =
  let means =
    Sweep.compare ~runs:1 ~family:Workload.Strassen_ptgs ~count:1 ~seed:5
      (fun i _ _ ->
        let i = float_of_int i in
        [
          { Sweep.unfairness = i; makespan = 10. +. i; extras = [| 2. *. i |] };
          { unfairness = 0.; makespan = 20. +. (2. *. i); extras = [| 1. |] };
        ])
  in
  match means with
  | [ a; b ] ->
    Alcotest.(check (float 0.)) "mean unfairness" 1.5 a.Sweep.unfairness;
    Alcotest.(check (float 0.)) "mean makespan" 11.5 a.Sweep.makespan;
    Alcotest.(check (float 0.)) "best arm" 1. a.Sweep.relative_makespan;
    Alcotest.(check (float 0.)) "twice the best" 2. b.Sweep.relative_makespan;
    Alcotest.(check (array (float 0.))) "extras" [| 3. |] a.Sweep.extras;
    Alcotest.(check (array (float 0.))) "extras" [| 1. |] b.Sweep.extras
  | _ -> Alcotest.fail "one mean per arm"

(* A bad run count names itself instead of starting the paper's 25-run
   sweep. An unset MCS_RUNS behaves as "25", which it is left at if it
   was unset before. *)
let test_resolve_runs () =
  let raises runs message =
    Alcotest.check_raises message (Invalid_argument message) (fun () ->
        ignore (Sweep.resolve_runs runs))
  in
  let saved = Sys.getenv_opt "MCS_RUNS" in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "MCS_RUNS" (Option.value saved ~default:"25"))
    (fun () ->
      Unix.putenv "MCS_RUNS" "7";
      Alcotest.(check int) "explicit wins" 3 (Sweep.resolve_runs (Some 3));
      Alcotest.(check int) "MCS_RUNS" 7 (Sweep.resolve_runs None);
      raises (Some (-1)) "runs must be a positive integer, got -1";
      raises (Some 0) "runs must be a positive integer, got 0";
      List.iter
        (fun v ->
          Unix.putenv "MCS_RUNS" v;
          raises None
            (Printf.sprintf "MCS_RUNS must be a positive integer, got %S" v))
        [ "0"; "-4"; "abc"; "" ])

(* Each scenario of a point replays its own submission stream, and X7's
   offline rows replay X5's: the strategies both run (ES, WPS-work)
   report the same unfairness in both tables. *)
let test_release_streams () =
  let stream i = Sweep.releases ~seed:Exp_arrivals.seed ~count:4 i in
  Alcotest.(check bool) "scenarios 0 and 1 differ" false (stream 0 = stream 1);
  Alcotest.(check bool) "deterministic" true (stream 1 = stream 1);
  let x5 = Exp_arrivals.compute ~runs:1 ~counts:[ 2 ] () in
  List.iter
    (fun (p : Exp_online.point) ->
      match
        List.find_opt
          (fun (q : Exp_arrivals.point) -> q.strategy = p.strategy)
          x5
      with
      | Some q when p.mode = Exp_online.Offline ->
        Alcotest.(check (float 0.))
          (Strategy.name p.strategy ^ " offline = X5")
          q.unfairness p.unfairness
      | _ -> ())
    (Exp_online.compute ~runs:1 ~counts:[ 2 ] ())

let test_runner_selfish_slowdowns_bounded () =
  let platform = Mcs_platform.Grid5000.lille () in
  let rng = Prng.create ~seed:3 in
  let ptgs = Workload.draw rng Workload.Random_mixed_scenarios ~count:3 in
  match Runner.evaluate platform ptgs [ Strategy.Selfish ] with
  | [ r ] ->
    Alcotest.(check int) "3 slowdowns" 3 (Array.length r.Runner.slowdowns);
    Array.iter
      (fun s ->
        Alcotest.(check bool) "slowdown in (0, 1.05]" true (s > 0. && s <= 1.05))
      r.Runner.slowdowns;
    Alcotest.(check bool) "unfairness >= 0" true (r.Runner.unfairness >= 0.);
    Alcotest.(check bool) "global >= avg" true
      (r.Runner.global_makespan >= r.Runner.avg_makespan -. 1e-9)
  | _ -> Alcotest.fail "expected one result"

let test_runner_single_app_slowdown_one () =
  (* Alone under Selfish, the concurrent run IS the dedicated run. *)
  let platform = Mcs_platform.Grid5000.nancy () in
  let rng = Prng.create ~seed:4 in
  let ptgs = Workload.draw rng Workload.Random_mixed_scenarios ~count:1 in
  match Runner.evaluate platform ptgs [ Strategy.Selfish ] with
  | [ r ] ->
    Alcotest.(check (float 1e-6)) "slowdown 1" 1. r.Runner.slowdowns.(0);
    Alcotest.(check (float 1e-6)) "unfairness 0" 0. r.Runner.unfairness
  | _ -> Alcotest.fail "expected one result"

(* One [evaluate] over a strategy list equals one [evaluate] per
   strategy, bit for bit, although it maps and replays each distinct
   allocation vector once: every strategy is still audited, and the
   mapper places the tasks of the baselines plus one concurrent mapping
   per distinct vector. On Strassen, where every graph has one width,
   PS-width and WPS-width repeat ES's allocations. *)
let test_runner_shares_equal_allocations () =
  let module Obs = Mcs_obs.Obs in
  let module Pipeline = Mcs_sched.Pipeline in
  let module Allocation = Mcs_sched.Allocation in
  let mapped = Obs.counter "mapper.tasks_mapped" in
  let analyses = Obs.counter "check.analyses" in
  let counted f =
    Obs.enable ();
    let r = f () in
    Obs.disable ();
    (r, Obs.value mapped, Obs.value analyses)
  in
  let same (a : Runner.run_metrics) (b : Runner.run_metrics) =
    let floats x y =
      Array.length x = Array.length y && Array.for_all2 Float.equal x y
    in
    a.Runner.strategy = b.Runner.strategy
    && floats a.Runner.makespans b.Runner.makespans
    && floats a.Runner.slowdowns b.Runner.slowdowns
    && Float.equal a.Runner.unfairness b.Runner.unfairness
    && Float.equal a.Runner.global_makespan b.Runner.global_makespan
    && Float.equal a.Runner.avg_makespan b.Runner.avg_makespan
  in
  let platform = Mcs_platform.Grid5000.rennes () in
  let strassen =
    Workload.draw (Prng.create ~seed:6) Workload.Strassen_ptgs ~count:3
  in
  let random =
    let rng = Prng.create ~seed:7 in
    List.init 3 (fun id ->
        Mcs_ptg.Random_gen.generate ~id rng Mcs_ptg.Random_gen.default)
  in
  let repeated =
    Strategy.[ Equal_share; Selfish; Equal_share; Proportional Cp; Selfish ]
  in
  List.iter
    (fun (what, ptgs, strategies, shares) ->
      let distinct =
        List.length
          (List.sort_uniq compare
             (List.map
                (fun strategy ->
                  Array.map
                    (fun (r : Allocation.result) -> r.Allocation.procs)
                    (Pipeline.prepare ~strategy platform ptgs)
                      .Pipeline.allocations)
                strategies))
      in
      Alcotest.(check bool)
        (what ^ ": some strategies share an allocation vector")
        shares
        (distinct < List.length strategies);
      let _, per_mapping, _ =
        counted (fun () ->
            Pipeline.schedule_concurrent ~strategy:Strategy.Equal_share
              platform ptgs)
      in
      let _, baselines, _ =
        counted (fun () -> List.map (Pipeline.schedule_alone platform) ptgs)
      in
      let runs, tasks_mapped, audits =
        counted (fun () -> Runner.evaluate platform ptgs strategies)
      in
      Alcotest.(check int) (what ^ ": one audit per strategy")
        (List.length strategies) audits;
      Alcotest.(check int)
        (what ^ ": one mapping per distinct vector")
        (baselines + (distinct * per_mapping))
        tasks_mapped;
      List.iter2
        (fun strategy (run : Runner.run_metrics) ->
          match Runner.evaluate platform ptgs [ strategy ] with
          | [ alone ] ->
            Alcotest.(check bool)
              (what ^ ": " ^ Strategy.name strategy ^ " as if alone")
              true (same run alone)
          | _ -> Alcotest.fail "expected one result")
        strategies runs;
      List.iteri
        (fun i (a : Runner.run_metrics) ->
          List.iteri
            (fun j (b : Runner.run_metrics) ->
              if i < j then
                Alcotest.(check bool)
                  (what ^ ": makespan arrays not shared")
                  true
                  (a.Runner.makespans != b.Runner.makespans))
            runs)
        runs)
    [
      ("strassen", strassen, Strategy.paper_eight, true);
      ("random", random, Strategy.paper_eight, false);
      ("repeated strategies", random, repeated, true);
    ]

let test_runner_estimated_timing () =
  let platform = Mcs_platform.Grid5000.rennes () in
  let rng = Prng.create ~seed:5 in
  let ptg = List.hd (Workload.draw rng Workload.Random_mixed_scenarios ~count:1) in
  let est = Runner.makespan_alone ~timing:Runner.Estimated platform ptg in
  let sim = Runner.makespan_alone ~timing:Runner.Simulated platform ptg in
  Alcotest.(check bool) "both computed" true (est > 0. && sim > 0.)

let test_table1_contents () =
  let rendered = Mcs_util.Table.render (Table1.table ()) in
  let contains sub =
    let n = String.length sub in
    let rec loop i =
      i + n <= String.length rendered
      && (String.sub rendered i n = sub || loop (i + 1))
    in
    loop 0
  in
  List.iter
    (fun s -> Alcotest.(check bool) ("mentions " ^ s) true (contains s))
    [ "Lille"; "Nancy"; "Rennes"; "Sophia"; "Grelon"; "4.603"; "20.2%" ]

let test_figure1_illustration_shape () =
  let rendered = Mcs_util.Table.render (Fig_ready_vs_global.illustration ()) in
  Alcotest.(check bool) "non-empty" true (String.length rendered > 100)

let test_constraint_audit_high_compliance () =
  (* The paper reports ~99% compliance; require > 90% on a small draw. *)
  let stats = Exp_constraint.compute ~runs:5 ~betas:[ 0.3; 0.6 ] () in
  List.iter
    (fun s ->
      let ratio =
        float_of_int s.Exp_constraint.level_ok
        /. float_of_int s.Exp_constraint.scenarios
      in
      Alcotest.(check bool)
        (Printf.sprintf "beta %.1f level compliance %.2f" s.Exp_constraint.beta
           ratio)
        true (ratio > 0.9))
    stats

let test_mu_sweep_endpoints_cover () =
  let points =
    Fig_mu_sweep.compute ~runs:1 ~counts:[ 4 ] ~mus:[ 0.; 1. ] ()
  in
  Alcotest.(check int) "two points" 2 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check bool) "unfairness >= 0" true
        (p.Fig_mu_sweep.unfairness >= 0.);
      Alcotest.(check bool) "makespan > 0" true (p.Fig_mu_sweep.avg_makespan > 0.))
    points

let test_fig_strategies_small () =
  let points =
    Fig_strategies.compute ~runs:1 ~counts:[ 2 ]
      ~family:Workload.Strassen_ptgs
      ~strategies:[ Strategy.Selfish; Strategy.Equal_share ] ()
  in
  Alcotest.(check int) "2 strategies x 1 count" 2 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check bool) "relative makespan >= 1" true
        (p.Fig_strategies.relative_makespan >= 1. -. 1e-9))
    points;
  let tables = Fig_strategies.tables ~family:Workload.Strassen_ptgs points in
  Alcotest.(check int) "two tables" 2 (List.length tables)

let test_arrivals_table_shape () =
  let t = Exp_arrivals.table ~runs:1 () in
  let rendered = Mcs_util.Table.render t in
  Alcotest.(check bool) "has strategies" true
    (let contains sub =
       let n = String.length sub in
       let rec loop i =
         i + n <= String.length rendered
         && (String.sub rendered i n = sub || loop (i + 1))
       in
       loop 0
     in
     contains "S" && contains "WPS-width" && contains "10 PTGs")

let test_single_ptg_expected_ordering () =
  let stats = Exp_single_ptg.compute ~runs:1 () in
  Alcotest.(check int) "four algorithms" 4 (List.length stats);
  let find name =
    List.find (fun s -> s.Exp_single_ptg.algorithm = name) stats
  in
  let heft = find "HEFT" and mheft = find "M-HEFT" in
  (* Mixed parallelism must crush sequential-task scheduling. *)
  Alcotest.(check bool) "heft much slower than m-heft" true
    (heft.Exp_single_ptg.mean_relative_makespan
    > 2. *. mheft.Exp_single_ptg.mean_relative_makespan);
  (* And HEFT holds only one processor per task: efficiency near 1. *)
  Alcotest.(check bool) "heft efficient" true
    (heft.Exp_single_ptg.mean_efficiency > 0.9)

let test_validation_errors_bounded () =
  let stats = Exp_validation.compute ~runs:1 () in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Workload.family_name s.Exp_validation.family ^ " error finite")
        true
        (s.Exp_validation.mean_rel_error >= 0.
        && s.Exp_validation.mean_rel_error < 10.))
    stats

let test_malleable_experiment_shape () =
  (* X9 audits every run (MAL rules included) and reports one point per
     (mode, level); the moldable rows never resize. The makespan edge
     itself is pinned deterministically in test_malleable.ml. *)
  let points = Exp_malleable.compute ~runs:1 ~count:4 () in
  Alcotest.(check int) "2 modes x 2 levels" 4 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p.Exp_malleable.mode ^ "/" ^ p.Exp_malleable.level ^ " finite")
        true
        (Float.is_finite p.Exp_malleable.unfairness
        && Float.is_finite p.Exp_malleable.relative_makespan
        && p.Exp_malleable.relative_makespan >= 1.);
      if p.Exp_malleable.mode = "moldable" then
        Alcotest.(check (float 0.)) "moldable never resizes" 0.
          p.Exp_malleable.resizes)
    points

let test_strassen_ps_width_equals_es () =
  (* Width-based strategies are ES on fixed-shape Strassen PTGs. *)
  let rng = Prng.create ~seed:6 in
  let ptgs = Workload.draw rng Workload.Strassen_ptgs ~count:4 in
  let es = Strategy.betas Strategy.Equal_share ~ref_speed:3. ptgs in
  let psw =
    Strategy.betas (Strategy.Proportional Strategy.Width) ~ref_speed:3. ptgs
  in
  Array.iteri
    (fun i b -> Alcotest.(check (float 1e-9)) "identical betas" es.(i) b)
    psw

let suite =
  [
    ( "experiments.workload",
      [
        Alcotest.test_case "draw counts" `Quick test_workload_draw_counts;
        Alcotest.test_case "strassen family" `Quick
          test_workload_strassen_family;
        Alcotest.test_case "bad release means raise" `Quick
          test_releases_mean;
      ] );
    ( "experiments.sweep",
      [
        Alcotest.test_case "scenarios shape & determinism" `Quick
          test_scenarios_shape_and_determinism;
        Alcotest.test_case "kernel normalises and averages per arm" `Quick
          test_compare_kernel;
        Alcotest.test_case "bad run counts raise" `Quick test_resolve_runs;
        Alcotest.test_case "release stream per scenario" `Quick
          test_release_streams;
      ] );
    ( "experiments.runner",
      [
        Alcotest.test_case "selfish slowdowns" `Quick
          test_runner_selfish_slowdowns_bounded;
        Alcotest.test_case "single app slowdown 1" `Quick
          test_runner_single_app_slowdown_one;
        Alcotest.test_case "estimated timing" `Quick test_runner_estimated_timing;
        Alcotest.test_case "one mapping per allocation vector" `Quick
          test_runner_shares_equal_allocations;
      ] );
    ( "experiments.figures",
      [
        Alcotest.test_case "table 1" `Quick test_table1_contents;
        Alcotest.test_case "figure 1 illustration" `Quick
          test_figure1_illustration_shape;
        Alcotest.test_case "constraint audit" `Slow
          test_constraint_audit_high_compliance;
        Alcotest.test_case "mu sweep endpoints" `Slow
          test_mu_sweep_endpoints_cover;
        Alcotest.test_case "strategies figure (small)" `Slow
          test_fig_strategies_small;
        Alcotest.test_case "strassen width = ES" `Quick
          test_strassen_ps_width_equals_es;
        Alcotest.test_case "arrivals table" `Slow test_arrivals_table_shape;
        Alcotest.test_case "single-ptg ordering" `Slow
          test_single_ptg_expected_ordering;
        Alcotest.test_case "validation bounded" `Slow
          test_validation_errors_bounded;
        Alcotest.test_case "malleable experiment (X9)" `Slow
          test_malleable_experiment_shape;
      ] );
  ]
