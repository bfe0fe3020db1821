(* The invariant analyzer: adversarial fixtures must trigger exactly
   their rule, real pipeline/online schedules must pass clean, and
   trace exports must round-trip through of_csv/of_json. *)

module Grid5000 = Mcs_platform.Grid5000
module Prng = Mcs_prng.Prng
module Ptg = Mcs_ptg.Ptg
module Task = Mcs_taskmodel.Task
module Workload = Mcs_experiments.Workload
module Engine = Mcs_online.Engine
module Policy = Mcs_online.Policy
open Mcs_sched
open Mcs_check

let task () = Task.make ~data:1e7 ~complexity:Matmul ~alpha:0.1

let check_ids what expected diags =
  Alcotest.(check (list string)) what expected (Diagnostic.rule_ids diags)

let check_clean what diags =
  Alcotest.(check (list string)) what [] (List.map Diagnostic.to_string diags)

(* --- in-memory adversarial fixtures, one rule each --- *)

let test_overlap () =
  let platform = Grid5000.lille () in
  let ptg =
    Mcs_ptg.Builder.build ~id:0 ~name:"par2"
      ~tasks:[| task (); task () |]
      ~edges:[]
  in
  let n = Ptg.node_count ptg in
  let reals =
    List.filter (fun v -> not (Ptg.is_virtual ptg v)) (List.init n Fun.id)
  in
  let windows = [ (0., 10.); (5., 15.) ] in
  let placements =
    Array.init n (fun v ->
        if Ptg.is_virtual ptg v then
          let t = if v = Ptg.entry ptg then 0. else 15. in
          { Schedule.node = v; cluster = 0; procs = [||]; start = t; finish = t }
        else
          let i = Option.get (List.find_index (( = ) v) reals) in
          let start, finish = List.nth windows i in
          { Schedule.node = v; cluster = 0; procs = [| 0 |]; start; finish })
  in
  let sched = Schedule.make ~ptg ~placements in
  check_ids "two tasks race on processor 0" [ "map-overlap" ]
    (Check.analyze platform [ sched ])

let test_precedence () =
  let platform = Grid5000.lille () in
  let ptg =
    Mcs_ptg.Builder.build ~id:0 ~name:"chain2"
      ~tasks:[| task (); task () |]
      ~edges:[ (0, 1, 0.) ]
  in
  let placements =
    [|
      { Schedule.node = 0; cluster = 0; procs = [| 0 |]; start = 0.; finish = 10. };
      { Schedule.node = 1; cluster = 0; procs = [| 1 |]; start = 5.; finish = 6. };
    |]
  in
  let sched = Schedule.make ~ptg ~placements in
  check_ids "successor starts before its predecessor finishes"
    [ "map-precedence" ]
    (Check.analyze platform [ sched ])

let test_level_share () =
  (* Lille's reference cluster has 107 processors; β = 0.1 budgets 10
     per level, but the single real level allocates 3 × 10 = 30. The
     mapping itself is produced by the real mapper, so only the
     allocation rule fires. *)
  let platform = Grid5000.lille () in
  let ptg =
    Mcs_ptg.Builder.build ~id:0 ~name:"par3"
      ~tasks:[| task (); task (); task () |]
      ~edges:[]
  in
  let alloc =
    Array.init (Ptg.node_count ptg) (fun v ->
        if Ptg.is_virtual ptg v then 1 else 10)
  in
  let ref_cluster = Reference_cluster.of_platform platform in
  let schedules = List_mapper.run platform ref_cluster [ (ptg, alloc) ] in
  check_ids "level allocates 30 against a budget of 10"
    [ "alloc-level-share" ]
    (Check.analyze ~betas:[| 0.1 |] ~allocations:[| alloc |] platform
       schedules)

let test_pinned_moved () =
  let platform = Grid5000.lille () in
  let ptg =
    Mcs_ptg.Builder.build ~id:0 ~name:"single" ~tasks:[| task () |] ~edges:[]
  in
  let sched = Pipeline.schedule_alone platform ptg in
  let prepared = Pipeline.prepare ~strategy:Strategy.Selfish platform [ ptg ] in
  let pl = sched.Schedule.placements.(0) in
  let moved =
    { pl with Schedule.start = pl.Schedule.start +. 2.;
      finish = pl.Schedule.finish +. 2. }
  in
  let snap =
    {
      Online_check.now = sched.Schedule.makespan;
      strategy = Strategy.Selfish;
      procedure = Allocation.Scrap_max;
      apps =
        [
          {
            Online_check.index = 0;
            ptg;
            release = 0.;
            beta = 1.;
            alloc = prepared.Pipeline.allocations.(0).Allocation.procs;
            pinned = [| Some moved |];
            schedule = sched;
          };
        ];
    }
  in
  check_ids "pinned placement moved across a reschedule"
    [ "online-pin-stability" ]
    (Online_check.analyze platform snap)

(* The static rules label diagnostics by list position; the online
   checker reports them under the submission index. A real task
   allocated no processor breaks ALLOC001 alone. *)
let test_online_relabel () =
  let platform = Grid5000.lille () in
  let ptg =
    Mcs_ptg.Builder.build ~id:0 ~name:"single" ~tasks:[| task () |] ~edges:[]
  in
  let n = Ptg.node_count ptg in
  let snap =
    {
      Online_check.now = 0.;
      strategy = Strategy.Selfish;
      procedure = Allocation.Scrap_max;
      apps =
        [
          {
            Online_check.index = 3;
            ptg;
            release = 0.;
            beta = 1.;
            alloc = Array.init n (fun v -> if Ptg.is_virtual ptg v then 1 else 0);
            pinned = Array.make n None;
            schedule = Pipeline.schedule_alone platform ptg;
          };
        ];
    }
  in
  let diags = Online_check.analyze platform snap in
  check_ids "a real task allocated no processor" [ "alloc-bounds" ] diags;
  Alcotest.(check (list (option int))) "reported under submission index 3"
    [ Some 3 ]
    (List.map (fun (d : Diagnostic.t) -> d.app) diags)

(* --- one forged placement per mapping rule, run through both entry
       points: the live analyzer and the linter over the JSON export --- *)

(* Two independent tasks on Lille's first cluster, on its first and
   last processors over [0, 10], between a virtual entry at 0 and a
   virtual exit at 10. [forge] rewrites the first task's placement
   (clean when the identity); [entry] the entry's. *)
let forged ?(entry = Fun.id) forge =
  let platform = Grid5000.lille () in
  let ptg =
    Mcs_ptg.Builder.build ~id:0 ~name:"par2"
      ~tasks:[| task (); task () |]
      ~edges:[]
  in
  let last = Mcs_platform.Platform.first_proc platform 1 - 1 in
  let at v procs start finish =
    { Schedule.node = v; cluster = 0; procs; start; finish }
  in
  let first_real = ref true in
  let placements =
    Array.init (Ptg.node_count ptg) (fun v ->
        if v = Ptg.entry ptg then entry (at v [||] 0. 0.)
        else if Ptg.is_virtual ptg v then at v [||] 10. 10.
        else if !first_real then begin
          first_real := false;
          forge (at v [| 0 |] 0. 10.)
        end
        else at v [| last |] 0. 10.)
  in
  (platform, Schedule.make ~ptg ~placements)

let check_both_paths what ?release ?alloc rule (platform, sched) =
  let one x = Option.map (fun x -> [| x |]) x in
  check_ids (what ^ " (analyze)") rule
    (Check.analyze ?release:(one release) ?allocations:(one alloc) platform
       [ sched ]);
  let json =
    Trace.to_json ?release:(one release) ?alloc:(one alloc) [ sched ]
  in
  match Trace.of_json json with
  | Error m -> Alcotest.failf "%s: export does not parse: %s" what m
  | Ok doc ->
    check_ids (what ^ " (lint)") rule (Check.lint_trace ~platform doc)

let test_forged_clean () =
  check_both_paths "unforged schedule" [] (forged Fun.id)

let test_forged_structure () =
  check_both_paths "finish before start" [ "map-structure" ]
    (forged (fun pl -> { pl with Schedule.start = 10.; finish = 5. }))

let test_forged_virtual () =
  check_both_paths "real task without processors" [ "map-virtual" ]
    (forged (fun pl -> { pl with Schedule.procs = [||] }));
  check_both_paths "virtual task holding a processor" [ "map-virtual" ]
    (forged ~entry:(fun pl -> { pl with Schedule.procs = [| 1 |] }) Fun.id)

let test_forged_cluster () =
  let platform = Grid5000.lille () in
  let foreign = Mcs_platform.Platform.first_proc platform 1 in
  check_both_paths "processor outside its cluster" [ "map-cluster" ]
    (forged (fun pl -> { pl with Schedule.procs = [| foreign |] }));
  (* Over a positive window a repeated processor also double-books
     itself (MAP004); an instantaneous task isolates MAP003. *)
  check_both_paths "processor listed twice" [ "map-cluster" ]
    (forged (fun pl ->
         { pl with Schedule.procs = [| 0; 0 |]; start = 5.; finish = 5. }))

let test_forged_packing () =
  let platform, sched = forged Fun.id in
  let limit =
    Reference_cluster.translate
      (Reference_cluster.of_platform platform)
      platform ~cluster:0 1
  in
  let alloc = Array.make (Ptg.node_count sched.Schedule.ptg) 1 in
  check_both_paths "more processors than the allocation translates to"
    ~alloc [ "map-packing" ]
    (forged (fun pl ->
         { pl with Schedule.procs = Array.init (limit + 1) Fun.id }));
  (* An allocation below one processor has no translation: ALLOC001
     reports it, and MAP006 must not raise on it. *)
  check_both_paths "zero allocation" ~alloc:(Array.map (fun _ -> 0) alloc)
    [ "alloc-bounds" ] (platform, sched)

let test_forged_release () =
  check_both_paths "start before the release" ~release:5. [ "map-release" ]
    (forged Fun.id)

(* --- the committed fixture files drive the same rules through the
       trace parser, as mcs_check does in CI --- *)

let lint_fixture name =
  let path = Filename.concat "fixtures" name in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let doc =
    match Trace.of_json text with
    | Ok doc -> doc
    | Error m -> Alcotest.failf "%s does not parse: %s" name m
  in
  Check.lint_trace ~platform:(Grid5000.lille ()) doc

let test_fixture_files () =
  List.iter
    (fun (file, rule) ->
      let diags = lint_fixture file in
      check_ids file [ rule ] diags;
      Alcotest.(check bool) (file ^ " is an error") true
        (Diagnostic.has_errors diags))
    [
      ("bad_overlap.json", "map-overlap");
      ("bad_precedence.json", "map-precedence");
      ("bad_beta.json", "alloc-level-share");
      ("bad_pinned.json", "online-pin-stability");
    ]

(* --- every real scheduling path passes with zero diagnostics --- *)

let test_pipeline_clean () =
  List.iter
    (fun (site, platform) ->
      List.iter
        (fun family ->
          List.iter
            (fun strategy ->
              let rng = Prng.create ~seed:7 in
              let ptgs = Workload.draw rng family ~count:4 in
              let prepared = Pipeline.prepare ~strategy platform ptgs in
              let schedules =
                Pipeline.schedule_concurrent ~strategy platform ptgs
              in
              check_clean
                (Printf.sprintf "%s/%s/%s clean" site
                   (Workload.family_name family)
                   (Strategy.name strategy))
                (Check.analyze_prepared ~strategy prepared platform schedules))
            [
              Strategy.Selfish;
              Strategy.Equal_share;
              Strategy.Weighted (Strategy.Work, 0.7);
            ])
        [ Workload.Random_mixed_scenarios; Workload.Fft_ptgs;
          Workload.Strassen_ptgs ])
    [ ("lille", Grid5000.lille ()); ("rennes", Grid5000.rennes ()) ]

let test_pipeline_release_clean () =
  let platform = Grid5000.nancy () in
  let rng = Prng.create ~seed:3 in
  let ptgs = Workload.draw rng Workload.Random_mixed_scenarios ~count:4 in
  let release = [| 0.; 25.; 60.; 61. |] in
  let strategy = Strategy.Equal_share in
  let prepared = Pipeline.prepare ~strategy platform ptgs in
  let schedules =
    Pipeline.schedule_concurrent ~release ~strategy platform ptgs
  in
  check_clean "staggered releases clean"
    (Check.analyze_prepared ~strategy ~release prepared platform schedules)

let test_online_clean () =
  (* Every reschedule generation of the online engine — pinned tasks,
     partial availability, dynamic β — must satisfy the full rule set. *)
  List.iter
    (fun strategy ->
      let platform = Grid5000.lille () in
      let rng = Prng.create ~seed:11 in
      let ptgs = Workload.draw rng Workload.Random_mixed_scenarios ~count:5 in
      let release = Workload.releases rng ~count:5 ~mean:40. in
      let apps = List.mapi (fun i ptg -> (ptg, release.(i))) ptgs in
      let generations = ref 0 in
      let check diags =
        incr generations;
        check_clean
          (Printf.sprintf "%s generation %d clean" (Strategy.name strategy)
             !generations)
          diags
      in
      let r =
        Engine.run ~check ~policy:(Policy.make strategy) platform apps
      in
      Alcotest.(check bool) "several generations audited" true
        (!generations >= 2 && !generations = r.Engine.stats.Engine.reschedules))
    [ Strategy.Equal_share; Strategy.Weighted (Strategy.Work, 0.7) ]

(* --- trace round-trips --- *)

let exported_schedules () =
  let platform = Grid5000.lille () in
  let rng = Prng.create ~seed:12 in
  let ptgs = Workload.draw rng Workload.Random_mixed_scenarios ~count:2 in
  let strategy = Strategy.Equal_share in
  let prepared = Pipeline.prepare ~strategy platform ptgs in
  let release = [| 0.; 42.5 |] in
  let schedules =
    Pipeline.schedule_concurrent ~release ~strategy platform ptgs
  in
  (platform, prepared, release, schedules)

let test_json_roundtrip () =
  let platform, prepared, release, schedules = exported_schedules () in
  let alloc =
    Array.map
      (fun (r : Allocation.result) -> r.Allocation.procs)
      prepared.Pipeline.allocations
  in
  let json =
    Trace.to_json ~release ~betas:prepared.Pipeline.betas ~alloc schedules
  in
  let doc =
    match Trace.of_json json with
    | Ok doc -> doc
    | Error m -> Alcotest.failf "of_json: %s" m
  in
  Alcotest.(check int) "app count" (List.length schedules) (Array.length doc);
  List.iteri
    (fun i (s : Schedule.t) ->
      let a = doc.(i) in
      Alcotest.(check int) "id" i a.Trace.app;
      Alcotest.(check string) "name" s.Schedule.ptg.Ptg.name a.Trace.name;
      Alcotest.(check (float 0.)) "release" release.(i) a.Trace.release;
      Alcotest.(check (option (float 0.))) "beta"
        (Some prepared.Pipeline.betas.(i))
        a.Trace.beta;
      Alcotest.(check (option (array int))) "alloc" (Some alloc.(i))
        (Option.map Fun.id a.Trace.alloc);
      Alcotest.(check (option (float 0.))) "makespan"
        (Some s.Schedule.makespan) a.Trace.makespan;
      Array.iteri
        (fun v (row : Trace.row) ->
          let pl = s.Schedule.placements.(v) in
          Alcotest.(check int) "node" v row.Trace.node;
          Alcotest.(check bool) "virtual"
            (Ptg.is_virtual s.Schedule.ptg v)
            row.Trace.virt;
          Alcotest.(check (array int)) "procs" pl.Schedule.procs
            row.Trace.procs;
          (* %.17g round-trips doubles exactly *)
          Alcotest.(check (float 0.)) "start" pl.Schedule.start row.Trace.start;
          Alcotest.(check (float 0.)) "finish" pl.Schedule.finish
            row.Trace.finish;
          Alcotest.(check int) "pred count"
            (Mcs_dag.Dag.in_degree s.Schedule.ptg.Ptg.dag v)
            (Array.length row.Trace.preds))
        a.Trace.rows)
    schedules;
  (* a faithful export of a real schedule lints clean *)
  check_clean "exported trace lints clean"
    (Check.lint_trace ~platform doc)

let test_csv_roundtrip () =
  let _, _, release, schedules = exported_schedules () in
  let csv = Trace.to_csv ~release schedules in
  let doc =
    match Trace.of_csv csv with
    | Ok doc -> doc
    | Error m -> Alcotest.failf "of_csv: %s" m
  in
  Alcotest.(check int) "app count" (List.length schedules) (Array.length doc);
  List.iteri
    (fun i (s : Schedule.t) ->
      let a = doc.(i) in
      Alcotest.(check string) "name" s.Schedule.ptg.Ptg.name a.Trace.name;
      Alcotest.(check (float 1e-6)) "release" release.(i) a.Trace.release;
      Array.iteri
        (fun v (row : Trace.row) ->
          let pl = s.Schedule.placements.(v) in
          Alcotest.(check (array int)) "procs" pl.Schedule.procs
            row.Trace.procs;
          (* CSV keeps 9 significant digits *)
          Alcotest.(check bool) "start close" true
            (Float.abs (pl.Schedule.start -. row.Trace.start)
            <= 1e-6 *. Float.max 1. (Float.abs pl.Schedule.start)))
        a.Trace.rows)
    schedules;
  (* all-zero releases: the column disappears and parses back as 0 *)
  let doc0 =
    match Trace.of_csv (Trace.to_csv schedules) with
    | Ok doc -> doc
    | Error m -> Alcotest.failf "of_csv (no release): %s" m
  in
  Array.iter
    (fun (a : Trace.app) ->
      Alcotest.(check (float 0.)) "zero release" 0. a.Trace.release)
    doc0

let test_rule_registry () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "of_id inverts id" true
        (Rule.of_id (Rule.id r) = Some r))
    Rule.all;
  let codes = List.map Rule.code Rule.all in
  Alcotest.(check int) "codes unique"
    (List.length codes)
    (List.length (List.sort_uniq compare codes))

let test_runner_fail_fast () =
  (* Runner.evaluate audits each strategy's schedules before scoring
     them (a violation raises); real schedules pass. *)
  let module Obs = Mcs_obs.Obs in
  let platform = Grid5000.lille () in
  let rng = Prng.create ~seed:5 in
  let ptgs = Workload.draw rng Workload.Fft_ptgs ~count:2 in
  Obs.enable ();
  let metrics =
    Mcs_experiments.Runner.evaluate platform ptgs
      [ Strategy.Equal_share; Strategy.Selfish ]
  in
  Obs.disable ();
  Alcotest.(check int) "both strategies evaluated" 2 (List.length metrics);
  Alcotest.(check int) "one analysis per strategy" 2
    (Obs.value (Obs.counter "check.analyses"))

let suite =
  [
    ( "check.rules",
      [
        Alcotest.test_case "registry" `Quick test_rule_registry;
        Alcotest.test_case "overlap fixture" `Quick test_overlap;
        Alcotest.test_case "precedence fixture" `Quick test_precedence;
        Alcotest.test_case "level-share fixture" `Quick test_level_share;
        Alcotest.test_case "pinned fixture" `Quick test_pinned_moved;
        Alcotest.test_case "online relabels static rules" `Quick
          test_online_relabel;
        Alcotest.test_case "forged schedule clean" `Quick test_forged_clean;
        Alcotest.test_case "forged MAP001 times" `Quick test_forged_structure;
        Alcotest.test_case "forged MAP002 virtual" `Quick test_forged_virtual;
        Alcotest.test_case "forged MAP003 cluster" `Quick test_forged_cluster;
        Alcotest.test_case "forged MAP006 packing" `Quick test_forged_packing;
        Alcotest.test_case "forged MAP007 release" `Quick test_forged_release;
        Alcotest.test_case "fixture files via trace lint" `Quick
          test_fixture_files;
      ] );
    ( "check.clean",
      [
        Alcotest.test_case "pipeline schedules pass" `Slow test_pipeline_clean;
        Alcotest.test_case "staggered releases pass" `Quick
          test_pipeline_release_clean;
        Alcotest.test_case "online generations pass" `Slow test_online_clean;
        Alcotest.test_case "runner fail-fast wiring" `Quick
          test_runner_fail_fast;
      ] );
    ( "check.trace",
      [
        Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "csv round-trip" `Quick test_csv_roundtrip;
      ] );
  ]
