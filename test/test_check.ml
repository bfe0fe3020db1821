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

(* Distinct rule ids present, in registry order. *)
let rule_ids diags =
  List.filter_map
    (fun r ->
      if List.exists (fun d -> d.Diagnostic.rule = r) diags then
        Some (Rule.id r)
      else None)
    Rule.all

let check_ids what expected diags =
  Alcotest.(check (list string)) what expected (rule_ids diags)

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

(* The test's [deps] put the fixtures beside the test executable, so
   the path does not depend on the working directory. *)
let lint_fixture name =
  let path =
    Filename.concat
      (Filename.concat (Filename.dirname Sys.executable_name) "fixtures")
      name
  in
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
      (* One batch per reschedule, then the execution audit's. *)
      Alcotest.(check bool) "several generations audited" true
        (!generations >= 3
        && !generations = r.Engine.stats.Engine.reschedules + 1))
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

(* --- the overlap sweep against its list-based original --- *)

(* The sweep before it ran on flat arrays, kept as the reference: one
   boxed record per (placement, processor) in a list, stably sorted
   with a closure. *)
type ref_interval = {
  proc : int;
  start : float;
  finish : float;
  app : int;
  node : int;
}

let reference_overlap ~emit ~rule intervals =
  let open Mcs_util.Floatx in
  let sorted =
    List.sort
      (fun a b ->
        let c = compare a.proc b.proc in
        if c <> 0 then c
        else
          let c = Float.compare a.start b.start in
          if c <> 0 then c else Float.compare a.finish b.finish)
      intervals
  in
  let cur = ref None in
  List.iter
    (fun iv ->
      (match !cur with
      | Some (proc, finish, app, node)
        when proc = iv.proc && iv.start <. finish ->
        emit
          (Diagnostic.error ~app:iv.app ~node:iv.node ~proc:iv.proc
             ~window:(iv.start, Float.min finish iv.finish)
             rule "runs while app %d node %d still holds the processor" app node)
      | _ -> ());
      match !cur with
      | Some (proc, finish, _, _) when proc = iv.proc && finish >= iv.finish ->
        ()
      | _ -> cur := Some (iv.proc, iv.finish, iv.app, iv.node))
    sorted

(* Every field, the window's floats in hex. *)
let render (d : Diagnostic.t) =
  let opt = function None -> "-" | Some x -> string_of_int x in
  Printf.sprintf "%s %s %s %s %s %s" (Rule.id d.Diagnostic.rule)
    (opt d.Diagnostic.app) (opt d.Diagnostic.node) (opt d.Diagnostic.proc)
    (match d.Diagnostic.window with
    | None -> "-"
    | Some (a, b) -> Printf.sprintf "%h..%h" a b)
    d.Diagnostic.message

(* Random busy intervals from a few values, so that processor, start
   and finish tie often; NaN and infinite times; negative processor ids
   and ids repeated within a placement. Under both overlap rules the
   flat sweep must emit the reference's diagnostics in its order. *)
let qcheck_overlap_matches_reference =
  let times = [| 0.; -0.; 1e-10; 1.; 2.; 2.5; 3.; nan; infinity; neg_infinity |] in
  QCheck.Test.make ~name:"overlap sweep matches the list reference" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let placements =
        List.init (Prng.int rng 40) (fun _ ->
            let start = Prng.choose rng times in
            let finish =
              if Prng.bernoulli rng ~p:0.5 then Prng.choose rng times
              else start +. Prng.choose rng [| 0.; 1.; 2. |]
            in
            ( Prng.int rng 3,
              Prng.int rng 4,
              Array.init (Prng.int rng 4) (fun _ -> Prng.int rng 5 - 2),
              start,
              finish ))
      in
      List.for_all
        (fun rule ->
          let got = ref [] and want = ref [] in
          Sched_check.check_overlap
            ~emit:(fun d -> got := d :: !got)
            ~rule
            (fun add ->
              List.iter
                (fun (app, node, procs, start, finish) ->
                  add ~app ~node ~procs ~start ~finish)
                placements);
          reference_overlap
            ~emit:(fun d -> want := d :: !want)
            ~rule
            (List.concat_map
               (fun (app, node, procs, start, finish) ->
                 List.map
                   (fun proc -> { proc; start; finish; app; node })
                   (Array.to_list procs))
               placements);
          List.map render !got = List.map render !want)
        [ Rule.Map_overlap; Rule.Mal_overlap ])

(* --- MAP003 against its sort-based original --- *)

(* MAP003 as it ran before the tag pass, kept as the reference: sort a
   copy of the ids and report each repeat, then check each id's range
   and cluster. *)
let reference_map003 ~emit platform ~app (pl : Schedule.placement) =
  let module P = Mcs_platform.Platform in
  let { Schedule.node; cluster; procs; _ } = pl in
  let sorted = Array.copy procs in
  Array.sort compare sorted;
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then
      emit
        (Diagnostic.error ~app ~node ~proc:sorted.(i) Rule.Map_cluster
           "processor listed twice")
  done;
  if cluster < 0 || cluster >= P.cluster_count platform then
    emit
      (Diagnostic.error ~app ~node Rule.Map_cluster
         "cluster %d does not exist on %s" cluster (P.name platform))
  else
    Array.iter
      (fun p ->
        if p < 0 || p >= P.total_procs platform then
          emit
            (Diagnostic.error ~app ~node ~proc:p Rule.Map_cluster
               "processor id outside 0..%d" (P.total_procs platform - 1))
        else if P.cluster_of_proc platform p <> cluster then
          emit
            (Diagnostic.error ~app ~node ~proc:p Rule.Map_cluster
               "processor belongs to cluster %d, task is on %d"
               (P.cluster_of_proc platform p) cluster))
      procs

(* Forged processor lists for the two tasks of one graph: adjacent,
   distant and triple repeats, ids below and past the platform, a
   foreign cluster's, and a second task reusing the first one's ids
   (the tags of one placement must not leak into the next). Both audit
   entry points, the analyzer and the trace linter, must report MAP003
   exactly as the reference does, in the same order. *)
let test_map003_matches_sort () =
  let platform = Grid5000.lille () in
  let total = Mcs_platform.Platform.total_procs platform in
  let foreign = Mcs_platform.Platform.first_proc platform 1 in
  let ptg =
    Mcs_ptg.Builder.build ~id:0 ~name:"par2"
      ~tasks:[| task (); task () |]
      ~edges:[]
  in
  let map003 diags =
    List.filter_map
      (fun (d : Diagnostic.t) ->
        if d.Diagnostic.rule = Rule.Map_cluster then
          Some (Diagnostic.to_string d)
        else None)
      diags
  in
  List.iter
    (fun (what, first, second) ->
      let lists = ref [ first; second ] in
      let placements =
        Array.init (Ptg.node_count ptg) (fun v ->
            let procs =
              if Ptg.is_virtual ptg v then [||]
              else
                match !lists with
                | p :: rest ->
                  lists := rest;
                  p
                | [] -> assert false
            in
            { Schedule.node = v; cluster = 0; procs; start = 5.; finish = 5. })
      in
      let sched = Schedule.make ~ptg ~placements in
      let want = ref [] in
      Array.iteri
        (fun v pl ->
          if not (Ptg.is_virtual ptg v) then
            reference_map003
              ~emit:(fun d -> want := d :: !want)
              platform ~app:0 pl)
        placements;
      let want = map003 (List.rev !want) in
      Alcotest.(check (list string))
        (what ^ " (analyze)") want
        (map003 (Check.analyze platform [ sched ]));
      match Trace.of_json (Trace.to_json [ sched ]) with
      | Error m -> Alcotest.failf "%s: export does not parse: %s" what m
      | Ok doc ->
        Alcotest.(check (list string))
          (what ^ " (lint)") want
          (map003 (Check.lint_trace ~platform doc)))
    [
      ("distinct", [| 0; 1; 2 |], [| 2; 1; 0 |]);
      ("adjacent repeat", [| 3; 3; 5 |], [| 5 |]);
      ("distant repeat", [| 2; 7; 4; 2 |], [| 7; 2 |]);
      ("triple", [| 6; 1; 6; 9; 6 |], [| 1 |]);
      ("two repeats", [| 8; 4; 8; 4 |], [| 4; 8 |]);
      ("negative ids", [| -1; 2; -1 |], [| 2; -4 |]);
      ("ids past the platform", [| total; 1; total + 5; total |], [| 1 |]);
      ("foreign repeat", [| foreign; 0; foreign |], [| 0 |]);
      ("mixed", [| 5; -2; 5; total; foreign |], [| 5; 5; total - 1 |]);
    ]

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
        Alcotest.test_case "MAP003 ≡ its sort-based original" `Quick
          test_map003_matches_sort;
        Alcotest.test_case "forged MAP006 packing" `Quick test_forged_packing;
        Alcotest.test_case "forged MAP007 release" `Quick test_forged_release;
        Alcotest.test_case "fixture files via trace lint" `Quick
          test_fixture_files;
        QCheck_alcotest.to_alcotest qcheck_overlap_matches_reference;
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
