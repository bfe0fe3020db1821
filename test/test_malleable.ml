(* Malleable execution: the resize model, the engine's grow/shrink
   path, the off-switch bit-identity guarantee, and the fault-free
   bit identity of the shrink-retry policy. *)

module Grid5000 = Mcs_platform.Grid5000
module Platform = Mcs_platform.Platform
module Prng = Mcs_prng.Prng
module Ptg = Mcs_ptg.Ptg
module Builder = Mcs_ptg.Builder
module Task = Mcs_taskmodel.Task
module Schedule = Mcs_sched.Schedule
module Strategy = Mcs_sched.Strategy
module Malleability = Mcs_sched.Malleability
open Mcs_online

let random_ptgs n seed =
  let rng = Prng.create ~seed in
  List.init n (fun id ->
      Mcs_ptg.Random_gen.generate ~id rng Mcs_ptg.Random_gen.default)

let workload n seed ~mean =
  let release =
    Mcs_experiments.Workload.releases (Prng.create ~seed:(seed + 1)) ~count:n
      ~mean
  in
  List.mapi (fun i ptg -> (ptg, release.(i))) (random_ptgs n seed)

let fault_scenario_for platform seed =
  Mcs_fault.Fault.generate ~seed platform
    {
      Mcs_fault.Fault.default with
      Mcs_fault.Fault.mttf = 400.;
      mttr = 60.;
      task_fail_p = 0.1;
      horizon = 1500.;
    }

(* One full run to quiescence: the JSONL log plus the result. *)
let run_logged ?faults ?check ~policy platform apps =
  let logs = ref [] in
  let log e = logs := Log.to_json e :: !logs in
  let s = Engine.create ~log ?faults ?check ~policy platform apps in
  Engine.advance s;
  (List.rev !logs, Engine.result s)

(* Same run interrupted at [split]: snapshot, abandon, finish on the
   restore. *)
let run_split ?faults ?check ~policy ~split platform apps =
  let logs = ref [] in
  let log e = logs := Log.to_json e :: !logs in
  let s = Engine.create ~log ?faults ?check ~policy platform apps in
  Engine.advance ~upto:split s;
  let s' = Engine.restore ~log ?check (Engine.snapshot s) in
  Engine.advance s';
  (List.rev !logs, Engine.result s')

let same_outcome (l0, r0) (l1, r1) =
  l0 = l1
  && Array.for_all2 Float.equal r0.Engine.completions r1.Engine.completions
  && r0.Engine.executions = r1.Engine.executions

(* ---------- The model itself ---------- *)

let test_model_validation () =
  Malleability.validate Malleability.default;
  let raises m =
    try
      Malleability.validate m;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "zero quantum" true
    (raises { Malleability.default with Malleability.quantum = 0. });
  Alcotest.(check bool) "nan quantum" true
    (raises { Malleability.default with Malleability.quantum = Float.nan });
  Alcotest.(check bool) "negative cost" true
    (raises { Malleability.default with Malleability.redist_cost = -1. });
  Alcotest.(check bool) "zero min width" true
    (raises { Malleability.default with Malleability.min_width = 0 });
  Alcotest.(check bool) "max below min" true
    (raises
       { Malleability.default with Malleability.min_width = 4; max_width = 2 });
  Alcotest.(check bool) "negative threshold" true
    (raises
       { Malleability.default with Malleability.shrink_active_above = -1 })

let test_model_grid_and_targets () =
  let m = { Malleability.default with Malleability.quantum = 30. } in
  let check_float = Alcotest.(check (float 1e-9)) in
  (* The next point is strictly in the future, on the segment's grid. *)
  check_float "at start" 30. (Malleability.next_resize_point m ~start:0. ~now:0.);
  check_float "mid-quantum" 30.
    (Malleability.next_resize_point m ~start:0. ~now:15.);
  check_float "on the grid" 60.
    (Malleability.next_resize_point m ~start:0. ~now:30.);
  check_float "offset start" 35.
    (Malleability.next_resize_point m ~start:5. ~now:20.);
  check_float "cost per moved" 0.25
    (Malleability.resize_cost
       { m with Malleability.redist_cost = 0.05 }
       ~moved:5);
  (* Threshold targets: spike shrinks by halving, drain doubles,
     in-between leaves the width alone; everything clamps. *)
  let m =
    {
      m with
      Malleability.shrink_active_above = 2;
      grow_active_below = 2;
      min_width = 2;
      max_width = 12;
    }
  in
  Alcotest.(check int) "spike halves" 4
    (Malleability.target_width m ~active:5 ~width:8 ~cap:16);
  Alcotest.(check int) "halving floors at min_width" 2
    (Malleability.target_width m ~active:5 ~width:3 ~cap:16);
  Alcotest.(check int) "drain doubles" 8
    (Malleability.target_width m ~active:1 ~width:4 ~cap:16);
  Alcotest.(check int) "growth clamps to cap" 5
    (Malleability.target_width m ~active:1 ~width:4 ~cap:5);
  Alcotest.(check int) "growth clamps to max_width" 12
    (Malleability.target_width m ~active:1 ~width:8 ~cap:16);
  Alcotest.(check int) "steady width untouched" 6
    (Malleability.target_width m ~active:2 ~width:6 ~cap:16)

(* ---------- Off-switch bit-identity (satellite: differential) ---------- *)

(* A malleability model that can never act: its grid points all lie
   beyond any finish. The engine must not even arm an opportunity. *)
let inert_model = { Malleability.default with Malleability.quantum = 1e9 }

(* A model whose grid fires constantly but whose thresholds never
   trigger: every opportunity is declined. The event stream gains
   resize pops, the log must not change at all. *)
let declined_model =
  {
    Malleability.default with
    Malleability.quantum = 20.;
    shrink_active_above = max_int;
    grow_active_below = 0;
  }

let test_disabled_is_bit_identical () =
  let platform = Grid5000.rennes () in
  let strategy = Strategy.Weighted (Strategy.Work, 0.7) in
  let apps = workload 6 42 ~mean:25. in
  let off = run_logged ~policy:(Policy.make strategy) platform apps in
  List.iter
    (fun (name, m) ->
      let on_ =
        run_logged ~policy:(Policy.make ~malleability:m strategy) platform apps
      in
      Alcotest.(check bool)
        (name ^ " model leaves the run bit-identical")
        true (same_outcome off on_);
      Alcotest.(check int) (name ^ ": zero resizes") 0
        (snd on_).Engine.stats.Engine.resizes)
    [ ("inert", inert_model); ("declined", declined_model) ]

let test_disabled_is_bit_identical_faults () =
  let platform = Grid5000.rennes () in
  let strategy = Strategy.Weighted (Strategy.Work, 0.7) in
  let apps = workload 6 77 ~mean:20. in
  let faults = fault_scenario_for platform 5 in
  let off = run_logged ~faults ~policy:(Policy.make strategy) platform apps in
  Alcotest.(check bool)
    "scenario exercises faults" true
    ((snd off).Engine.stats.Engine.kills > 0
    || (snd off).Engine.stats.Engine.task_failures > 0);
  let on_ =
    run_logged ~faults
      ~policy:(Policy.make ~malleability:inert_model strategy)
      platform apps
  in
  Alcotest.(check bool)
    "faulted run bit-identical with the inert model" true
    (same_outcome off on_)

let test_disabled_is_bit_identical_snapshot () =
  (* The snapshot round-trip must not perturb the disabled run either:
     plain-off, split-off and split-with-inert-model all coincide. *)
  let platform = Grid5000.rennes () in
  let strategy = Strategy.Weighted (Strategy.Work, 0.7) in
  let apps = workload 6 21 ~mean:25. in
  let off = run_logged ~policy:(Policy.make strategy) platform apps in
  List.iter
    (fun split ->
      Alcotest.(check bool) "split off-run identical" true
        (same_outcome off
           (run_split ~policy:(Policy.make strategy) ~split platform apps));
      Alcotest.(check bool) "split inert-model run identical" true
        (same_outcome off
           (run_split
              ~policy:(Policy.make ~malleability:inert_model strategy)
              ~split platform apps)))
    [ 40.; 90. ]

(* ---------- A run that actually resizes ---------- *)

(* Drain scenario: one long single-task application plus a pack of
   short ones, all released together. Under ES everybody starts narrow;
   the short applications depart quickly, the survivor's running task
   is grown at the next resize points. *)
let drain_apps () =
  let solo id seconds =
    ( Builder.build ~id ~name:(Printf.sprintf "app%d" id)
        ~tasks:
          [|
            Task.make ~data:(seconds *. 1e9) ~complexity:(Stencil 1.)
              ~alpha:0.;
          |]
        ~edges:[],
      0. )
  in
  solo 0 600. :: List.init 4 (fun i -> solo (i + 1) 20.)

let drain_platform () =
  Platform.make ~name:"uni16"
    [ { Platform.cluster_name = "c"; procs = 16; gflops = 1.; switch = 0 } ]

let grow_model =
  {
    Malleability.default with
    Malleability.quantum = 10.;
    redist_cost = 0.05;
    grow_active_below = 2;
    shrink_active_above = 1000;
  }

let test_grow_on_drain_beats_moldable () =
  let platform = drain_platform () in
  let apps = drain_apps () in
  let errors = ref 0 in
  let check ds =
    errors := !errors + List.length (Mcs_check.Diagnostic.errors ds)
  in
  let moldable =
    run_logged ~check ~policy:(Policy.make Strategy.Equal_share) platform apps
  in
  let malleable =
    run_logged ~check
      ~policy:(Policy.make ~malleability:grow_model Strategy.Equal_share)
      platform apps
  in
  let makespan (_, r) =
    Array.fold_left Float.max 0. r.Engine.completions
  in
  Alcotest.(check bool) "malleable run resizes" true
    ((snd malleable).Engine.stats.Engine.resizes > 0);
  Alcotest.(check int) "both runs checker-clean (MAL included)" 0 !errors;
  Alcotest.(check bool)
    (Printf.sprintf "malleable makespan %g beats moldable %g"
       (makespan malleable) (makespan moldable))
    true
    (makespan malleable < makespan moldable);
  (* The resize trail is externally observable and well-formed. *)
  let resized_lines =
    List.filter
      (fun l ->
        String.length l > 20
        && String.sub l 0 20 = {|{"event":"task_resiz|})
      (fst malleable)
  in
  Alcotest.(check int) "one log line per resize"
    (snd malleable).Engine.stats.Engine.resizes
    (List.length resized_lines);
  (* Final schedules remain structurally valid (precedence, clusters,
     cross-application processor exclusivity). *)
  Mcs_check.Check.(
    fail_on_error (analyze platform (snd malleable).Engine.schedules))

let test_shrink_on_spike () =
  (* The mirror scenario: a lone wide application is joined by a burst
     of arrivals; its running task shrinks at the next resize point and
     the freed processors host the newcomers. *)
  let platform = drain_platform () in
  let solo id seconds release =
    ( Builder.build ~id ~name:(Printf.sprintf "app%d" id)
        ~tasks:
          [|
            Task.make ~data:(seconds *. 1e9) ~complexity:(Stencil 1.)
              ~alpha:0.;
          |]
        ~edges:[],
      release )
  in
  let apps =
    solo 0 600. 0. :: List.init 4 (fun i -> solo (i + 1) 40. 5.)
  in
  let model =
    {
      Malleability.default with
      Malleability.quantum = 10.;
      shrink_active_above = 2;
      grow_active_below = 0;
    }
  in
  let errors = ref 0 in
  let check ds =
    errors := !errors + List.length (Mcs_check.Diagnostic.errors ds)
  in
  let _, r =
    run_logged ~check
      ~policy:(Policy.make ~malleability:model Strategy.Equal_share)
      platform apps
  in
  Alcotest.(check bool) "spike shrinks the running task" true
    (r.Engine.stats.Engine.resizes > 0);
  Alcotest.(check int) "checker-clean" 0 !errors;
  let shrank =
    List.exists
      (fun e ->
        e.Mcs_check.Fault_check.outcome = Mcs_check.Fault_check.Resized)
      r.Engine.executions
  in
  Alcotest.(check bool) "a resized segment is recorded" true shrank

let test_malleable_snapshot_restore () =
  (* Snapshot/restore transparency with malleability ON: armed resize
     opportunities survive the round-trip. *)
  let platform = drain_platform () in
  let apps = drain_apps () in
  let policy = Policy.make ~malleability:grow_model Strategy.Equal_share in
  let plain = run_logged ~policy platform apps in
  Alcotest.(check bool) "run resizes" true
    ((snd plain).Engine.stats.Engine.resizes > 0);
  List.iter
    (fun split ->
      Alcotest.(check bool)
        (Printf.sprintf "malleable split at %g is bit-identical" split)
        true
        (same_outcome plain (run_split ~policy ~split platform apps)))
    [ 5.; 15.; 35.; 100. ]

let test_malleable_faulted_checker_clean () =
  (* Malleability and fault injection together: resized segments can be
     killed and retried; the combined run stays audit-clean under both
     the FAULT and MAL rule families. *)
  let platform = Grid5000.rennes () in
  let apps = workload 6 77 ~mean:20. in
  let faults = fault_scenario_for platform 5 in
  let model =
    {
      Malleability.default with
      Malleability.quantum = 15.;
      grow_active_below = 3;
      shrink_active_above = 3;
    }
  in
  let errors = ref [] in
  let check ds = errors := Mcs_check.Diagnostic.errors ds @ !errors in
  let _, r =
    run_logged ~faults ~check
      ~policy:
        (Policy.make ~malleability:model
           (Strategy.Weighted (Strategy.Work, 0.7)))
      platform apps
  in
  Alcotest.(check bool) "faults exercised" true
    (r.Engine.stats.Engine.kills > 0 || r.Engine.stats.Engine.task_failures > 0);
  Alcotest.(check int) "no checker errors" 0 (List.length !errors)

(* ---------- Shrink on retry, fault-free ---------- *)

let test_shrink_retry_fault_free () =
  (* The engine halves retried allocations whether or not it runs a
     fault scenario; the halving is the identity at zero failures, so
     a fault-free run cannot observe it. *)
  let platform = Grid5000.rennes () in
  let apps = workload 5 42 ~mean:25. in
  let policy = Policy.make (Strategy.Weighted (Strategy.Work, 0.7)) in
  let plain = run_logged ~policy platform apps in
  let registry =
    run_logged ~policy:(Policy.of_name "shrink-retry" ~base:policy) platform
      apps
  in
  Alcotest.(check bool)
    "shrink-retry is bit-identical fault-free" true
    (same_outcome plain registry)

(* --- MAL001-003 on hand-built execution logs --- *)

let test_mal_rules () =
  let module F = Mcs_check.Fault_check in
  let module D = Mcs_check.Diagnostic in
  let platform = Grid5000.lille () in
  let t = Task.make ~data:1e7 ~complexity:Task.Matmul ~alpha:0.1 in
  let ptg = Builder.build ~id:0 ~name:"single" ~tasks:[| t |] ~edges:[] in
  let node =
    Option.get
      (List.find_opt
         (fun v -> not (Ptg.is_virtual ptg v))
         (List.init (Ptg.node_count ptg) Fun.id))
  in
  let model =
    { Malleability.default with Malleability.redist_cost = 1.; min_width = 2 }
  in
  let full ?(cluster = 0) width =
    Task.time t ~gflops:(Platform.cluster platform cluster).Platform.gflops
      ~procs:width
  in
  let seg ?(app = 0) ?(cluster = 0) procs ~start ~finish outcome =
    { F.app; node; cluster; procs; start; finish; outcome }
  in
  let check ?(apps = 1) execs =
    Mcs_check.Mal_check.check model platform ~ptgs:(Array.make apps ptg) execs
  in
  let ids execs = D.rule_ids (check execs) in
  (* Half the work on 4 processors, then a shrink to 2 (2 moved, 2 s of
     redistribution) that completes the other half. *)
  let half = full 4 /. 2. in
  let first = seg [| 0; 1; 2; 3 |] ~start:0. ~finish:half F.Resized in
  (* The continuation of [first] on [procs], [moved] processors away
     from it: its redistribution overhead, then [work] of the task. *)
  let rest ?(cluster = 0) ?(start = half) ?(work = 0.5) ~moved procs =
    let overhead = Malleability.resize_cost model ~moved in
    seg ~cluster procs ~start
      ~finish:(start +. overhead +. (work *. full ~cluster (Array.length procs)))
      F.Completed
  in
  Alcotest.(check (list string)) "clean shrink-then-complete chain" []
    (ids [ first; rest ~moved:2 [| 0; 1 |] ]);
  Alcotest.(check (list string)) "MAL001: width below min_width"
    [ "mal-width-bounds" ]
    (ids [ first; rest ~moved:3 [| 0 |] ]);
  Alcotest.(check (list string)) "MAL001: width unchanged"
    [ "mal-width-bounds" ]
    (ids [ first; rest ~moved:0 [| 0; 1; 2; 3 |] ]);
  let c1 = Platform.first_proc platform 1 in
  Alcotest.(check (list string)) "MAL001: chain changes cluster"
    [ "mal-width-bounds" ]
    (ids [ first; rest ~cluster:1 ~moved:6 [| c1; c1 + 1 |] ]);
  Alcotest.(check (list string)) "MAL002: gap between segments"
    [ "mal-cost-accounting" ]
    (ids [ first; rest ~start:(half +. 1.) ~moved:2 [| 0; 1 |] ]);
  Alcotest.(check (list string))
    "MAL002: segment shorter than its redistribution overhead"
    [ "mal-cost-accounting" ]
    (ids
       [ first; seg [| 0; 1 |] ~start:half ~finish:(half +. 1.) F.Completed ]);
  Alcotest.(check (list string)) "MAL002: dangling resize"
    [ "mal-cost-accounting" ] (ids [ first ]);
  Alcotest.(check (list string)) "MAL002: chain does 3/4 of the work"
    [ "mal-cost-accounting" ]
    (ids [ first; rest ~work:0.25 ~moved:2 [| 0; 1 |] ]);
  (* Both B and C overlap A on processor 0, though not each other. *)
  let overlaps =
    check ~apps:3
      [
        seg ~app:0 [| 0 |] ~start:0. ~finish:10. F.Completed;
        seg ~app:1 [| 0 |] ~start:1. ~finish:2. F.Completed;
        seg ~app:2 [| 0 |] ~start:3. ~finish:4. F.Completed;
      ]
  in
  Alcotest.(check (list string)) "MAL003: overlapping segments"
    [ "mal-overlap" ] (D.rule_ids overlaps);
  Alcotest.(check (list (option int)))
    "MAL003: every segment overlapping A is reported" [ Some 1; Some 2 ]
    (List.map (fun d -> d.D.app) overlaps)

let suite =
  [
    ( "online.malleable",
      [
        Alcotest.test_case "model validation" `Quick test_model_validation;
        Alcotest.test_case "resize grid & threshold targets" `Quick
          test_model_grid_and_targets;
        Alcotest.test_case "disabled ⇒ bit-identical" `Quick
          test_disabled_is_bit_identical;
        Alcotest.test_case "disabled ⇒ bit-identical (faults)" `Quick
          test_disabled_is_bit_identical_faults;
        Alcotest.test_case "disabled ⇒ bit-identical (snapshot)" `Quick
          test_disabled_is_bit_identical_snapshot;
        Alcotest.test_case "grow on drain beats moldable" `Quick
          test_grow_on_drain_beats_moldable;
        Alcotest.test_case "shrink on arrival spike" `Quick
          test_shrink_on_spike;
        Alcotest.test_case "snapshot/restore with malleability on" `Quick
          test_malleable_snapshot_restore;
        Alcotest.test_case "malleable + faults checker-clean" `Quick
          test_malleable_faulted_checker_clean;
        Alcotest.test_case "MAL001-003 adversarial" `Quick test_mal_rules;
        Alcotest.test_case "shrink-retry bit-identical fault-free" `Quick
          test_shrink_retry_fault_free;
      ] );
  ]
