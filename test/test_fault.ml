(* Fault injection & recovery: seeded generator determinism, the pure
   transient-failure draws, the engine's kill/requeue/retry handling
   under outages, the FAULT001-003 execution audit, the event queue's
   canonical equal-time ordering, and the [mapper.release] counter
   read against the attempt log. *)

module Grid5000 = Mcs_platform.Grid5000
module Platform = Mcs_platform.Platform
module Prng = Mcs_prng.Prng
module Fault = Mcs_fault.Fault
module Engine = Mcs_online.Engine
module Policy = Mcs_online.Policy
module Log = Mcs_online.Log
module Event_queue = Mcs_online.Event_queue
module Exec_check = Mcs_check.Exec_check
module Diagnostic = Mcs_check.Diagnostic
module Strategy = Mcs_sched.Strategy
module Task = Mcs_taskmodel.Task
module Ptg = Mcs_ptg.Ptg
module Malleability = Mcs_sched.Malleability
module Obs = Mcs_obs.Obs

(* Distinct rule ids present, in registry order. *)
let rule_ids diags =
  List.filter_map
    (fun r ->
      if List.exists (fun d -> d.Mcs_check.Diagnostic.rule = r) diags then
        Some (Mcs_check.Rule.id r)
      else None)
    Mcs_check.Rule.all

(* A scenario with no outage and no transient failure. *)
let no_faults = { Fault.seed = 0; config = Fault.default; outages = [] }

(* --- event queue: canonical order at equal timestamps --- *)

let test_event_queue_order () =
  let q = Event_queue.create () in
  let push k = Event_queue.push q ~time:5. k in
  (* Scrambled insertion order on purpose. *)
  push (Event_queue.Arrival 2);
  push (Event_queue.Proc_up [| 3 |]);
  push (Event_queue.Task_failed { app = 0; node = 2 });
  push (Event_queue.Departure 1);
  push (Event_queue.Task_finish { app = 1; node = 0 });
  push (Event_queue.Task_finish { app = 0; node = 7 });
  push (Event_queue.Proc_down [| 1; 2 |]);
  push (Event_queue.Arrival 0);
  Event_queue.push q ~time:4. (Event_queue.Departure 9);
  let expected =
    [
      Event_queue.Departure 9;
      Event_queue.Task_finish { app = 0; node = 7 };
      Event_queue.Task_finish { app = 1; node = 0 };
      Event_queue.Task_failed { app = 0; node = 2 };
      Event_queue.Departure 1;
      Event_queue.Arrival 0;
      Event_queue.Arrival 2;
      Event_queue.Proc_down [| 1; 2 |];
      Event_queue.Proc_up [| 3 |];
    ]
  in
  let popped =
    List.init (List.length expected) (fun _ ->
        (Option.get (Event_queue.pop q)).Event_queue.kind)
  in
  Alcotest.(check bool)
    "finishes < failures < departures < arrivals < outages < recoveries"
    true (popped = expected);
  Alcotest.(check bool) "drained" true (Event_queue.is_empty q)

let test_event_queue_insertion_tie () =
  (* Same time, kind and content key (outages sharing their first
     processor): insertion sequence decides. *)
  let q = Event_queue.create () in
  let pop_kind () = (Option.get (Event_queue.pop q)).Event_queue.kind in
  Event_queue.push q ~time:2. (Event_queue.Proc_down [| 1; 5 |]);
  Event_queue.push q ~time:2. (Event_queue.Proc_down [| 1; 2 |]);
  Alcotest.(check bool) "earlier push first" true
    (pop_kind () = Event_queue.Proc_down [| 1; 5 |]);
  Alcotest.(check bool) "later push second" true
    (pop_kind () = Event_queue.Proc_down [| 1; 2 |]);
  (* A generation bump drops the earlier announcement of a task;
     arrivals and outages survive it. *)
  let kind = Event_queue.Task_finish { app = 0; node = 1 } in
  Event_queue.push q ~time:2. kind;
  Event_queue.push q ~time:2. (Event_queue.Arrival 3);
  Event_queue.push q ~time:2. (Event_queue.Proc_up [| 4 |]);
  Event_queue.next_generation q;
  Event_queue.push q ~time:2. kind;
  Alcotest.(check int) "earlier announcement dropped" 3 (Event_queue.length q);
  Alcotest.(check bool) "re-announcement, arrival, recovery" true
    (List.init 3 (fun _ -> pop_kind ())
    = [ kind; Event_queue.Arrival 3; Event_queue.Proc_up [| 4 |] ]);
  Alcotest.(check bool) "drained" true (Event_queue.is_empty q);
  Alcotest.(check bool) "rejects non-finite time" true
    (try
       Event_queue.push q ~time:Float.nan kind;
       false
     with Invalid_argument _ -> true)

(* --- generator: determinism, outage pairing, validation --- *)

let outage_config =
  {
    Fault.default with
    Fault.mttf = 400.;
    mttr = 50.;
    task_fail_p = 0.1;
    horizon = 2000.;
  }

let test_generator_determinism () =
  let platform = Grid5000.lille () in
  let a = Fault.generate ~seed:42 platform outage_config in
  let b = Fault.generate ~seed:42 platform outage_config in
  Alcotest.(check bool) "same seed, same scenario" true (a = b);
  let c = Fault.generate ~seed:43 platform outage_config in
  Alcotest.(check bool) "different seed, different outages" true
    (a.Fault.outages <> c.Fault.outages);
  Alcotest.(check bool) "mttf 400 over 2000s produces outages" true
    (a.Fault.outages <> []);
  Alcotest.(check bool) "empty only without outages and failures" false
    (Fault.is_empty a);
  Alcotest.(check bool) "the default config generates an empty scenario" true
    (Fault.is_empty (Fault.generate ~seed:42 platform Fault.default))

let check_outage_shape platform config s =
  let total = Platform.total_procs platform in
  List.iter
    (fun o ->
      Alcotest.(check bool) "recovery after failure" true
        (o.Fault.up_at > o.Fault.down_at);
      Alcotest.(check bool) "failure within horizon" true
        (o.Fault.down_at >= 0. && o.Fault.down_at <= config.Fault.horizon);
      Alcotest.(check bool) "procs non-empty, increasing, in range" true
        (Array.length o.Fault.procs > 0
        && Array.for_all (fun p -> p >= 0 && p < total) o.Fault.procs
        &&
        let ok = ref true in
        Array.iteri
          (fun i p -> if i > 0 then ok := !ok && p > o.Fault.procs.(i - 1))
          o.Fault.procs;
        !ok))
    s.Fault.outages;
  let keys =
    List.map (fun o -> (o.Fault.down_at, o.Fault.procs.(0))) s.Fault.outages
  in
  Alcotest.(check bool) "outages sorted by (down_at, first proc)" true
    (keys = List.sort compare keys)

let test_outage_pairing () =
  let platform = Grid5000.lille () in
  let s = Fault.generate ~seed:7 platform outage_config in
  check_outage_shape platform outage_config s;
  List.iter
    (fun o ->
      Alcotest.(check int) "proc granularity fails one processor" 1
        (Array.length o.Fault.procs))
    s.Fault.outages;
  let cluster_config = { outage_config with Fault.granularity = Cluster } in
  let sc = Fault.generate ~seed:7 platform cluster_config in
  check_outage_shape platform cluster_config sc;
  List.iter
    (fun o ->
      let c = Platform.cluster_of_proc platform o.Fault.procs.(0) in
      Alcotest.(check int) "cluster granularity fails a whole cluster"
        (Platform.cluster platform c).Platform.procs
        (Array.length o.Fault.procs);
      Array.iter
        (fun p ->
          Alcotest.(check int) "all procs of one cluster" c
            (Platform.cluster_of_proc platform p))
        o.Fault.procs)
    sc.Fault.outages

let test_generate_validation () =
  let platform = Grid5000.lille () in
  let raises config =
    try
      ignore (Fault.generate ~seed:0 platform config);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "mttf 0" true
    (raises { outage_config with Fault.mttf = 0. });
  Alcotest.(check bool) "mttr 0" true
    (raises { outage_config with Fault.mttr = 0. });
  Alcotest.(check bool) "mttr nan" true
    (raises { outage_config with Fault.mttr = Float.nan });
  Alcotest.(check bool) "task_fail_p < 0" true
    (raises { outage_config with Fault.task_fail_p = -0.1 });
  Alcotest.(check bool) "task_fail_p > 1" true
    (raises { outage_config with Fault.task_fail_p = 1.5 });
  Alcotest.(check bool) "horizon 0" true
    (raises { outage_config with Fault.horizon = 0. })

let test_roll_failure () =
  let platform = Grid5000.lille () in
  let s =
    Fault.generate ~seed:5 platform
      { Fault.default with Fault.task_fail_p = 0.5 }
  in
  let hits = ref 0 in
  for app = 0 to 9 do
    for node = 0 to 9 do
      for attempt = 0 to 9 do
        let r = Fault.roll_failure s ~app ~node ~attempt in
        Alcotest.(check bool) "pure in (app, node, attempt)" r
          (Fault.roll_failure s ~app ~node ~attempt);
        if r then incr hits
      done
    done
  done;
  Alcotest.(check bool) "p = 0.5 hits roughly half of 1000 draws" true
    (!hits > 400 && !hits < 600);
  for attempt = 0 to 9 do
    Alcotest.(check bool) "p = 0 never fails" false
      (Fault.roll_failure no_faults ~app:0 ~node:1 ~attempt)
  done

(* --- engine under faults --- *)

let apps_of n seed ~mean =
  let rng = Prng.create ~seed in
  let ptgs =
    List.init n (fun id ->
        Mcs_ptg.Random_gen.generate ~id rng Mcs_ptg.Random_gen.default)
  in
  let release =
    Mcs_experiments.Workload.releases (Prng.create ~seed:(seed + 1))
      ~count:n ~mean
  in
  List.mapi (fun i ptg -> (ptg, release.(i))) ptgs

let run_logged ?faults ?policy platform apps =
  let policy =
    match policy with Some p -> p | None -> Policy.make Strategy.Equal_share
  in
  let logs = ref [] in
  let r =
    Engine.run ~log:(fun e -> logs := Log.to_json e :: !logs) ?faults ~policy
      platform apps
  in
  (List.rev !logs, r)

let test_zero_fault_equivalence () =
  (* [faults:(Some no_faults)] routes through the full fault plumbing
     (fail rolls, degraded-β guard) yet must replay the exact
     un-faulted run: same event log, same schedules, same stats. *)
  let platform = Grid5000.lille () in
  let apps = apps_of 5 21 ~mean:25. in
  let logs0, r0 = run_logged platform apps in
  let logs1, r1 = run_logged ~faults:no_faults platform apps in
  Alcotest.(check (list string)) "identical event logs" logs0 logs1;
  Alcotest.(check bool) "identical betas" true (r0.Engine.betas = r1.Engine.betas);
  Alcotest.(check bool) "identical responses" true
    (r0.Engine.responses = r1.Engine.responses);
  Alcotest.(check bool) "identical schedules" true
    (r0.Engine.schedules = r1.Engine.schedules);
  Alcotest.(check bool) "identical stats" true
    (r0.Engine.stats = r1.Engine.stats);
  Alcotest.(check int) "no kills" 0 r1.Engine.stats.Engine.kills

let faulted_scenario platform =
  Fault.generate ~seed:11 platform
    {
      Fault.default with
      Fault.mttf = 600.;
      mttr = 60.;
      task_fail_p = 0.05;
      horizon = 1200.;
    }

let test_fault_determinism () =
  let platform = Grid5000.lille () in
  let apps = apps_of 5 21 ~mean:25. in
  let faults = faulted_scenario platform in
  let logs0, r0 = run_logged ~faults platform apps in
  let logs1, r1 = run_logged ~faults platform apps in
  Alcotest.(check (list string)) "identical faulted logs" logs0 logs1;
  Alcotest.(check bool) "identical faulted stats" true
    (r0.Engine.stats = r1.Engine.stats);
  Alcotest.(check bool) "identical executions" true
    (r0.Engine.executions = r1.Engine.executions);
  Alcotest.(check bool) "outages were processed" true
    (r0.Engine.stats.Engine.fault_events > 0)

let test_kill_conservation () =
  (* Kills truncate attempts mid-task; the execution audit proves the
     lost work was re-run and every task still completed exactly once
     outside every down interval. *)
  let platform = Grid5000.lille () in
  let apps = apps_of 5 21 ~mean:25. in
  let faults = faulted_scenario platform in
  let diags = ref [] in
  let _, r =
    run_logged ~faults platform apps
  in
  let checked, rc =
    let logs = ref [] in
    let r =
      Engine.run
        ~log:(fun e -> logs := e :: !logs)
        ~check:(fun d -> diags := !diags @ d)
        ~faults
        ~policy:(Policy.make Strategy.Equal_share)
        platform apps
    in
    (List.rev !logs, r)
  in
  Alcotest.(check (list string)) "engine audit clean" []
    (List.map Diagnostic.to_string (Diagnostic.errors !diags));
  Alcotest.(check bool) "check does not perturb the run" true
    (r.Engine.executions = rc.Engine.executions);
  Alcotest.(check bool) "scenario induces kills" true
    (rc.Engine.stats.Engine.kills > 0);
  Alcotest.(check bool) "kills were logged" true
    (List.exists
       (function Log.Task_killed _ -> true | _ -> false)
       checked);
  Alcotest.(check bool) "all responses finite" true
    (Array.for_all Float.is_finite rc.Engine.responses);
  let down =
    Fault.down_intervals faults ~procs:(Platform.total_procs platform)
  in
  let ptgs = Array.of_list (List.map fst apps) in
  Alcotest.(check (list string)) "standalone execution audit clean" []
    (List.map Diagnostic.to_string
       (Exec_check.check ~malleability:None ~max_retries:3 ~down platform
          ~ptgs rc.Engine.executions))

let test_real_exit_records () =
  (* A PTG whose unique sink is a real task reuses it as the exit node;
     its completion must still be recorded as an execution attempt
     (regression: the departure used to swallow the finish, tripping
     FAULT003 on every real-exit PTG). *)
  let platform = Grid5000.lille () in
  let t = Task.make ~data:1e7 ~complexity:Matmul ~alpha:0.1 in
  let ptg =
    Mcs_ptg.Builder.build ~id:0 ~name:"chain2" ~tasks:[| t; t |]
      ~edges:[ (0, 1, 0.) ]
  in
  let sink = Ptg.exit ptg in
  Alcotest.(check bool) "sink reused as exit" false (Ptg.is_virtual ptg sink);
  let r =
    Engine.run ~faults:no_faults ~policy:(Policy.make Strategy.Equal_share)
      platform
      [ (ptg, 0.) ]
  in
  Alcotest.(check int) "one completed attempt for the real exit" 1
    (List.length
       (List.filter
          (fun e ->
            e.Exec_check.node = sink
            && e.Exec_check.outcome = Exec_check.Completed)
          r.Engine.executions));
  let down = Array.make (Platform.total_procs platform) [] in
  Alcotest.(check (list string)) "conservation audit clean" []
    (List.map Diagnostic.to_string
       (Exec_check.check ~malleability:None ~max_retries:0 ~down platform
          ~ptgs:[| ptg |] r.Engine.executions))

(* --- FAULT001-003 on hand-built execution logs --- *)

let test_fault_rules () =
  let platform = Grid5000.lille () in
  let t = Task.make ~data:1e7 ~complexity:Matmul ~alpha:0.1 in
  let ptg =
    Mcs_ptg.Builder.build ~id:0 ~name:"single" ~tasks:[| t |] ~edges:[]
  in
  let node =
    Option.get
      (List.find_opt
         (fun v -> not (Ptg.is_virtual ptg v))
         (List.init (Ptg.node_count ptg) Fun.id))
  in
  let full =
    Task.time t ~gflops:(Platform.cluster platform 0).Platform.gflops ~procs:1
  in
  let total = Platform.total_procs platform in
  let no_down = Array.make total [] in
  let exec ?(start = 0.) ?(finish = full) outcome =
    { Exec_check.app = 0; node; cluster = 0; procs = [| 0 |]; start; finish;
      outcome }
  in
  let ids ?(max_retries = 3) ?(down = no_down) execs =
    rule_ids
      (Exec_check.check ~malleability:None ~max_retries ~down platform
         ~ptgs:[| ptg |] execs)
  in
  Alcotest.(check (list string)) "clean single completion" []
    (ids [ exec Exec_check.Completed ]);
  let down = Array.make total [] in
  down.(0) <- [ (full /. 4., full /. 2.) ];
  Alcotest.(check (list string)) "FAULT001: attempt overlaps a down interval"
    [ "fault-down-overlap" ]
    (ids ~down [ exec Exec_check.Completed ]);
  Alcotest.(check (list string)) "kill truncated at the outage is legal" []
    (ids ~down
       [
         exec ~finish:(full /. 4.) Exec_check.Killed;
         exec ~start:(full /. 2.) ~finish:(full /. 2. +. full)
           Exec_check.Completed;
       ]);
  Alcotest.(check (list string)) "FAULT002: failures exceed max-retries"
    [ "fault-retry-bound" ]
    (ids ~max_retries:1
       [
         exec Exec_check.Failed;
         exec ~start:(full +. 1.) ~finish:(2. *. full +. 1.)
           Exec_check.Failed;
         exec ~start:(2. *. full +. 2.) ~finish:(3. *. full +. 2.)
           Exec_check.Completed;
       ]);
  Alcotest.(check (list string)) "FAULT003: task never completed"
    [ "fault-conservation" ]
    (ids [ exec Exec_check.Failed ]);
  Alcotest.(check (list string)) "FAULT003: completion not last"
    [ "fault-conservation" ]
    (ids
       [
         exec Exec_check.Completed;
         exec ~start:(full +. 1.) ~finish:(full +. 2.) Exec_check.Killed;
       ]);
  Alcotest.(check (list string)) "FAULT003: short completion"
    [ "fault-conservation" ]
    (ids [ exec ~finish:(full /. 2.) Exec_check.Completed ])

(* --- mapper.release ≡ what the attempt log says was released --- *)

(* Small random engine runs on every site: with or without a fault
   scenario, malleable or not, under the default or the eager policy.
   Cluster-granularity outages with a short MTTF black out a whole
   site now and then. Under a fault scenario every kill and every
   resize releases the processors of the attempt it closes, so the
   counter is the summed widths of the Killed and Resized records;
   without one it stays 0. *)
let qcheck_release_counter =
  QCheck.Test.make ~name:"mapper.release = widths of killed and resized attempts"
    ~count:25
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let sites = Array.of_list (Grid5000.all ()) in
      let platform = sites.(Prng.int rng (Array.length sites)) in
      let apps = apps_of (2 + Prng.int rng 3) seed ~mean:20. in
      let malleability =
        if Prng.bool rng then
          Some { Malleability.default with Malleability.quantum = 10. }
        else None
      in
      let base = Policy.make ?malleability Strategy.Equal_share in
      let policy =
        Policy.of_name (if Prng.bool rng then "eager" else "default") ~base
      in
      let faults =
        if Prng.bool rng then
          Some
            (Fault.generate ~seed platform
               {
                 Fault.mttf = Prng.uniform rng ~lo:50. ~hi:1000.;
                 mttr = Prng.uniform rng ~lo:20. ~hi:200.;
                 task_fail_p = Prng.uniform rng ~lo:0. ~hi:0.2;
                 granularity = (if Prng.bool rng then Cluster else Proc);
                 horizon = 1000.;
               })
        else None
      in
      let c = Obs.counter "mapper.release" in
      Obs.enable ();
      let r =
        Fun.protect ~finally:Obs.disable (fun () ->
            Engine.run ?faults ~policy platform apps)
      in
      let released =
        List.fold_left
          (fun acc e ->
            match e.Exec_check.outcome with
            | Exec_check.Killed | Exec_check.Resized ->
              acc + Array.length e.Exec_check.procs
            | Exec_check.Completed | Exec_check.Failed -> acc)
          0 r.Engine.executions
      in
      Obs.value c = if Option.is_some faults then released else 0)

let suite =
  [
    ( "fault",
      [
        Alcotest.test_case "event queue canonical order" `Quick
          test_event_queue_order;
        Alcotest.test_case "event queue insertion tie-break" `Quick
          test_event_queue_insertion_tie;
        Alcotest.test_case "generator determinism" `Quick
          test_generator_determinism;
        Alcotest.test_case "outage pairing + granularity" `Quick
          test_outage_pairing;
        Alcotest.test_case "config validation" `Quick test_generate_validation;
        Alcotest.test_case "transient draws pure" `Quick test_roll_failure;
        Alcotest.test_case "zero-fault equivalence" `Quick
          test_zero_fault_equivalence;
        Alcotest.test_case "faulted run determinism" `Quick
          test_fault_determinism;
        Alcotest.test_case "kill-mid-task conservation" `Quick
          test_kill_conservation;
        Alcotest.test_case "real exit node records execution" `Quick
          test_real_exit_records;
        Alcotest.test_case "FAULT001-003 adversarial" `Quick test_fault_rules;
        QCheck_alcotest.to_alcotest qcheck_release_counter;
      ] );
  ]
