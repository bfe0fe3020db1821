(* Golden corpus: MD5 digests of hex-float ([%h]) renderings of the
   engine's event logs, the serving layer's merged logs and the offline
   evaluation's metrics, at fixed seeds, compared with committed values.

   A change meant to keep every schedule bit-identical must leave every
   digest here untouched; one that shifts any float by one ulp, in any
   mode, fails. Re-baselining a digest is a deliberate act: record it
   in CHANGES.md with the reason. *)

module Grid5000 = Mcs_platform.Grid5000
module Prng = Mcs_prng.Prng
module Strategy = Mcs_sched.Strategy
module Malleability = Mcs_sched.Malleability
module Fault = Mcs_fault.Fault
module Runner = Mcs_experiments.Runner
module Workload = Mcs_experiments.Workload
module Service = Mcs_serve.Service
module List_mapper = Mcs_sched.List_mapper
module Schedule = Mcs_sched.Schedule
open Mcs_online

let md5 b = Digest.to_hex (Digest.string (Buffer.contents b))

let digest_of render xs =
  let b = Buffer.create 65536 in
  List.iter (render b) xs;
  md5 b

let add_float b x = Buffer.add_string b (Printf.sprintf "%h;" x)
let add_int b i = Buffer.add_string b (Printf.sprintf "%d;" i)
let add_tag b s = Buffer.add_string b (s ^ ":")

let render_event b (e : Log.event) =
  match e with
  | Log.Arrival { time; app; name; tasks } ->
    add_tag b "arrival";
    add_float b time;
    add_int b app;
    add_tag b name;
    add_int b tasks
  | Log.Reschedule { time; trigger; betas; remapped; pinned } ->
    add_tag b "reschedule";
    add_float b time;
    add_tag b trigger;
    List.iter
      (fun (app, beta) ->
        add_int b app;
        add_float b beta)
      betas;
    add_int b remapped;
    add_int b pinned
  | Log.Task_finish { time; app; node } ->
    add_tag b "finish";
    add_float b time;
    add_int b app;
    add_int b node
  | Log.Departure { time; app; response } ->
    add_tag b "departure";
    add_float b time;
    add_int b app;
    add_float b response
  | Log.Proc_down { time; procs } ->
    add_tag b "down";
    add_float b time;
    Array.iter (add_int b) procs
  | Log.Proc_up { time; procs } ->
    add_tag b "up";
    add_float b time;
    Array.iter (add_int b) procs
  | Log.Task_failed { time; app; node; failures } ->
    add_tag b "failed";
    add_float b time;
    add_int b app;
    add_int b node;
    add_int b failures
  | Log.Task_killed { time; app; node; elapsed } ->
    add_tag b "killed";
    add_float b time;
    add_int b app;
    add_int b node;
    add_float b elapsed
  | Log.Task_resized
      { time; app; node; from_width; to_width; moved; cost; finish } ->
    add_tag b "resized";
    add_float b time;
    add_int b app;
    add_int b node;
    add_int b from_width;
    add_int b to_width;
    add_int b moved;
    add_float b cost;
    add_float b finish

(* --- engine -------------------------------------------------------- *)

let workload n seed ~mean =
  let rng = Prng.create ~seed in
  let ptgs =
    List.init n (fun id ->
        Mcs_ptg.Random_gen.generate ~id rng Mcs_ptg.Random_gen.default)
  in
  let release =
    Workload.releases (Prng.create ~seed:(seed + 1)) ~count:n ~mean
  in
  List.mapi (fun i ptg -> (ptg, release.(i))) ptgs

let wps_work = Strategy.Weighted (Strategy.Work, 0.7)
let malleable = { Malleability.default with Malleability.quantum = 10. }

let faults platform =
  Fault.generate ~seed:5 platform
    {
      Fault.default with
      Fault.mttf = 300.;
      mttr = 60.;
      task_fail_p = 0.15;
      horizon = 1500.;
    }

(* The engine's log, the run's completions and its counters. With
   [split], the run stops before that virtual time, is snapshotted and
   finishes on a restored session that inherits the log sink. *)
let engine_run ?faults ?split ~policy platform apps =
  let events = ref [] in
  let log e = events := e :: !events in
  let s = Engine.create ~log ?faults ~policy platform apps in
  let s =
    match split with
    | None -> s
    | Some t ->
      Engine.advance ~upto:t s;
      Engine.restore ~log (Engine.snapshot s)
  in
  Engine.advance s;
  let r = Engine.result s in
  let events = List.rev !events in
  let tail b () = Array.iter (add_float b) r.Engine.completions in
  let log b = List.iter (render_event b) events in
  (digest_of (fun b () -> log b; tail b ()) [ () ], r.Engine.stats, events)

let any (_ : Engine.stats) = true

(* Whether some instant of the log has every processor of [platform]
   down: a blackout, during which the engine can only revoke. *)
let blacks_out platform events =
  let down = Array.make (Mcs_platform.Platform.total_procs platform) false in
  List.exists
    (function
      | Log.Proc_down { procs; _ } ->
        Array.iter (fun p -> down.(p) <- true) procs;
        Array.for_all Fun.id down
      | Log.Proc_up { procs; _ } ->
        Array.iter (fun p -> down.(p) <- false) procs;
        false
      | _ -> false)
    events

(* [mcs_online_cli --count 8 --site lille --seed 2 --faults
   --fault-granularity cluster --mttf 400 --mttr 300]: whole-cluster
   outages take every lille cluster down three times, with applications
   active in each blackout. *)
let blackout_scenario () =
  let lille = Grid5000.lille () in
  let rng = Prng.create ~seed:2 in
  let ptgs = Workload.draw rng Workload.Random_mixed_scenarios ~count:8 in
  let release = Workload.releases rng ~count:8 ~mean:30. in
  let faults =
    Fault.generate ~seed:2 lille
      {
        Fault.default with
        Fault.mttf = 400.;
        mttr = 300.;
        granularity = Fault.Cluster;
      }
  in
  (lille, List.mapi (fun i ptg -> (ptg, release.(i))) ptgs, faults)

let blackout_cases =
  [
    ("blackout", "c9f78d08c785a3f909357df657b48a87", None);
    ("blackout, malleable", "e7878e925c5c086e75cdaff5aed9ad34", Some malleable);
  ]

(* Name, committed digest, what the run must reach for its digest to
   pin anything, and the run itself. *)
let engine_cases =
  let rennes = Grid5000.rennes () in
  let apps = workload 6 42 ~mean:25. in
  let faulted_apps = workload 6 77 ~mean:20. in
  let faults = faults rennes in
  let shrink = { Policy.default_faults with Policy.shrink_on_retry = true } in
  [
    ( "plain",
      "0686ac424d0dc2796b6c11b85419ca42",
      any,
      fun () -> engine_run ~policy:(Policy.make wps_work) rennes apps );
    ( "reschedule on task finish",
      "8b08d094cb93c4c0826a0dce3d21829d",
      any,
      fun () ->
        engine_run
          ~policy:(Policy.make ~reschedule_on_task_finish:true wps_work)
          rennes apps );
    ( "faulted",
      "3d1807270dfcee186807566d93013b53",
      (fun st -> st.Engine.kills > 0 && st.Engine.task_failures > 0),
      fun () ->
        engine_run ~faults
          ~policy:(Policy.make ~faults:shrink wps_work)
          rennes faulted_apps );
    ( "malleable",
      "ce0148cdae1198684dbaf6d73471e771",
      (fun st -> st.Engine.resizes > 0),
      fun () ->
        engine_run
          ~policy:(Policy.make ~malleability:malleable wps_work)
          rennes apps );
    ( "faulted + malleable, snapshot/restore split",
      "bc2756d629b14eeebfcc2f6923bd96c2",
      (fun st -> st.Engine.resizes > 0 && st.Engine.kills > 0),
      fun () ->
        engine_run ~faults ~split:120.
          ~policy:(Policy.make ~faults:shrink ~malleability:malleable wps_work)
          rennes faulted_apps );
  ]

let test_engine () =
  List.iter
    (fun (name, expected, reaches, run) ->
      let got, stats, _ = run () in
      Alcotest.(check bool) (name ^ ": run reaches its paths") true
        (reaches stats);
      Alcotest.(check string) name expected got)
    engine_cases;
  let platform, apps, faults = blackout_scenario () in
  List.iter
    (fun (name, expected, malleability) ->
      let got, stats, events =
        engine_run ~faults ~policy:(Policy.make ?malleability wps_work)
          platform apps
      in
      Alcotest.(check bool) (name ^ ": run blacks out and kills") true
        (blacks_out platform events && stats.Engine.kills > 0);
      if malleability <> None then
        Alcotest.(check bool) (name ^ ": run resizes") true
          (stats.Engine.resizes > 0);
      Alcotest.(check string) name expected got)
    blackout_cases

(* --- policy registry, swap and what-if ----------------------------- *)

(* Every registry name over one faulted + malleable scenario: each run
   kills, retries and resizes, so the trigger set, the backoff and the
   shrink all reach the log. *)
let registry_cases =
  [
    ("default", "6c639022166b41cfc88a004dd3c85ff5");
    ("static", "8322a2b7a3e3a9f49fe4880560547948");
    ("eager", "7cee3e34ec9b6bd5a26ae3b7f39d4f39");
    ("linear-backoff", "5fca8c994ebfe08a19feacac0444c899");
    ("shrink-retry", "1605e92c24fa88d8711146d5635e906a");
  ]

let test_registry () =
  let rennes = Grid5000.rennes () in
  let apps = workload 4 77 ~mean:20. in
  let faults =
    Fault.generate ~seed:5 rennes
      {
        Fault.default with
        Fault.mttf = 1200.;
        mttr = 60.;
        task_fail_p = 0.15;
        horizon = 800.;
      }
  in
  let base = Policy.make ~malleability:malleable wps_work in
  let digests =
    List.map
      (fun (name, expected) ->
        let policy = Policy.of_name name ~base in
        let got, st, _ = engine_run ~faults ~policy rennes apps in
        Alcotest.(check bool)
          (name ^ ": run kills, retries and resizes")
          true
          (st.Engine.kills > 0 && st.Engine.task_failures > 0
          && st.Engine.resizes > 0);
        Alcotest.(check string) name expected got;
        got)
      registry_cases
  in
  Alcotest.(check int)
    "registry digests pairwise distinct" (List.length digests)
    (List.length (List.sort_uniq compare digests))

let reschedule_triggers events =
  List.filter_map
    (function Log.Reschedule { trigger; _ } -> Some trigger | _ -> None)
    events

(* [static] up to t = 80, then [eager] with an immediate remap. *)
let test_swap () =
  let rennes = Grid5000.rennes () in
  let base = Policy.make wps_work in
  let events = ref [] in
  let log e = events := e :: !events in
  let s =
    Engine.create ~log ~policy:(Policy.of_name "static" ~base) rennes
      (workload 6 42 ~mean:25.)
  in
  Engine.advance ~upto:80. s;
  Engine.set_policy s (Policy.of_name "eager" ~base);
  Engine.advance s;
  let r = Engine.result s in
  let triggers = reschedule_triggers !events in
  Alcotest.(check bool)
    "the swap remaps, then task finishes reschedule" true
    (List.mem "policy_swap" triggers && List.mem "task_finish" triggers);
  Alcotest.(check string) "static -> eager swap"
    "215fa974aa4ae501dbf4ba6b0a8abe6e"
    (digest_of
       (fun b () ->
         List.iter (render_event b) (List.rev !events);
         Array.iter (add_float b) r.Engine.completions)
       [ () ])

(* A what-if from [static] to [default] part-way through a contended
   stream: the adoption, both clone makespans and the live run's
   completions. *)
let test_what_if () =
  let rennes = Grid5000.rennes () in
  let base = Policy.make wps_work in
  let s =
    Engine.create ~policy:(Policy.of_name "static" ~base) rennes
      (workload 6 11 ~mean:20.)
  in
  Engine.advance ~upto:30. s;
  let sp = Engine.what_if s (Policy.of_name "default" ~base) in
  Engine.advance s;
  let r = Engine.result s in
  Alcotest.(check bool) "default adopted" true sp.Engine.adopted;
  Alcotest.(check string) "static -> default what-if"
    "e02e13ce2c55e96b6448c796894d590f"
    (digest_of
       (fun b () ->
         add_tag b (string_of_bool sp.Engine.adopted);
         add_float b sp.Engine.baseline_makespan;
         add_float b sp.Engine.candidate_makespan;
         Array.iter (add_float b) r.Engine.completions)
       [ () ])

(* --- serve --------------------------------------------------------- *)

let serve_config ~shards ~mode =
  {
    Service.default_config with
    Service.shards;
    mode;
    policy = Policy.make Strategy.Equal_share;
    capture_logs = true;
  }

let serve_digest cfg =
  let r = Service.run_stream cfg (Grid5000.grid ()) (workload 24 5 ~mean:2.) in
  digest_of
    (fun b (id, e) ->
      add_int b id;
      render_event b e)
    (Service.merged_log r)

let serve_cases =
  [
    (1, "3cab7da3fe268bde6b0dced50ee34245");
    (4, "1b2f75cc37d2db827acf121aae720d10");
  ]

let test_serve () =
  List.iter
    (fun (shards, expected) ->
      List.iter
        (fun (mname, mode) ->
          Alcotest.(check string)
            (Printf.sprintf "%d shard(s), %s" shards mname)
            expected
            (serve_digest (serve_config ~shards ~mode)))
        [ ("inline", Service.Inline); ("domains", Service.Domains) ])
    serve_cases;
  Alcotest.(check string) "2 shard(s), inline, eager"
    "9790fd9c36afac616e0094785eed1f51"
    (let cfg = serve_config ~shards:2 ~mode:Service.Inline in
     serve_digest
       { cfg with policy = Policy.of_name "eager" ~base:cfg.Service.policy })

(* --- mapper orderings ---------------------------------------------- *)

let render_placement b (pl : Schedule.placement) =
  add_int b pl.node;
  add_int b pl.cluster;
  Array.iter (add_int b) pl.procs;
  add_float b pl.start;
  add_float b pl.finish

let placements_digest schedules =
  digest_of
    (fun b (s : Schedule.t) -> Array.iter (render_placement b) s.placements)
    schedules

(* One 4-application rennes scenario, allocated under equal shares and
   submitted 6 s apart. *)
let mapper_scenario () =
  let platform = Grid5000.rennes () in
  let rng = Prng.create ~seed:31 in
  let ptgs =
    List.init 4 (fun id ->
        Mcs_ptg.Random_gen.generate ~id rng Mcs_ptg.Random_gen.default)
  in
  let prepared =
    Mcs_sched.Pipeline.prepare ~strategy:Strategy.Equal_share platform ptgs
  in
  let apps =
    List.mapi
      (fun i ptg ->
        let a = prepared.Mcs_sched.Pipeline.allocations.(i) in
        (ptg, a.Mcs_sched.Allocation.procs))
      ptgs
  in
  (platform, apps, Array.init 4 (fun i -> 6. *. float_of_int i))

let ordering_name = function
  | List_mapper.Ready_tasks -> "ready tasks"
  | Global_fcfs -> "global fcfs"
  | Global_backfill -> "global backfill"

(* Each ordering with packing on and off, over the scenario alone.
   Global_backfill never packs, so its two digests agree. *)
let ordering_cases =
  [
    (List_mapper.Ready_tasks, true, "22ff19ecd945eebf34fe67e6d913e60b");
    (Ready_tasks, false, "719971198b17429a32fe45af786294ad");
    (Global_fcfs, true, "44dc69c7fd1bb05f752152d97d28e2c2");
    (Global_fcfs, false, "488460221b4afe6f2b4be3d1976a76e3");
    (Global_backfill, true, "507165150d219f4118769814c308bcbf");
    (Global_backfill, false, "507165150d219f4118769814c308bcbf");
  ]

(* The same scenario as a partial reschedule: the prefix of a fresh
   Ready_tasks run that starts before t = 60 s is pinned, each processor
   is busy until a drawn time or its last pinned finish, and the upper
   half of Paravent is down. *)
let reschedule_cases =
  [
    (List_mapper.Ready_tasks, "ce50a571c745a922d66cc3d422f4d391");
    (Global_fcfs, "11cb931adeeb5dadb0a775f0755fc1ab");
  ]

let test_orderings () =
  let platform, apps, release = mapper_scenario () in
  let ref_cluster = Mcs_sched.Reference_cluster.of_platform platform in
  let run ?pinned ?avail ?up ordering packing =
    placements_digest
      (List_mapper.run ~options:{ List_mapper.ordering; packing } ~release
         ?pinned ?avail ?up platform ref_cluster apps)
  in
  List.iter
    (fun (ordering, packing, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "%s, packing %b" (ordering_name ordering) packing)
        expected (run ordering packing))
    ordering_cases;
  let fresh = List_mapper.run ~release platform ref_cluster apps in
  let pinned =
    Array.of_list
      (List.map
         (fun (s : Schedule.t) ->
           Array.map
             (fun (pl : Schedule.placement) ->
               if pl.start < 60. then Some pl else None)
             s.placements)
         fresh)
  in
  let count keep =
    Array.fold_left
      (Array.fold_left (fun n pl -> if keep pl then n + 1 else n))
      0 pinned
  in
  Alcotest.(check bool) "the prefix pins some nodes, not all" true
    (count Option.is_some > 0 && count Option.is_none > 0);
  let rng = Prng.create ~seed:9 in
  let total = Mcs_platform.Platform.total_procs platform in
  let avail = Array.init total (fun _ -> Prng.uniform rng ~lo:0. ~hi:40.) in
  Array.iter
    (Array.iter (function
      | None -> ()
      | Some (pl : Schedule.placement) ->
        Array.iter
          (fun p -> avail.(p) <- Float.max avail.(p) pl.finish)
          pl.procs))
    pinned;
  let base = Mcs_platform.Platform.first_proc platform 1 in
  let width = (Mcs_platform.Platform.cluster platform 1).procs in
  let up =
    Array.init total (fun p -> p < base + (width / 2) || p >= base + width)
  in
  List.iter
    (fun (ordering, expected) ->
      Alcotest.(check string)
        (ordering_name ordering ^ ", pinned prefix, profile and mask")
        expected
        (run ~pinned ~avail ~up ordering true))
    reschedule_cases

(* --- offline evaluation -------------------------------------------- *)

let evaluate_digest family =
  let ptgs = Workload.draw (Prng.create ~seed:23) family ~count:4 in
  let runs =
    Runner.evaluate (Grid5000.rennes ()) ptgs Strategy.paper_eight
  in
  digest_of
    (fun b (m : Runner.run_metrics) ->
      add_tag b (Strategy.name m.Runner.strategy);
      Array.iter (add_float b) m.Runner.makespans;
      Array.iter (add_float b) m.Runner.slowdowns;
      add_float b m.Runner.unfairness)
    runs

let evaluate_cases =
  [
    ("random", Workload.Random_mixed_scenarios,
     "0933b5f65b96a6179e48a679d107463c");
    ("fft", Workload.Fft_ptgs, "5e4758da4745f05ec9e5ac9d7551c5f5");
    ("strassen", Workload.Strassen_ptgs, "9d86fc7fa126498bdeb7b2d25704fc7a");
  ]

let test_evaluate () =
  List.iter
    (fun (name, family, expected) ->
      Alcotest.(check string) name expected (evaluate_digest family))
    evaluate_cases

let suite =
  [
    ( "golden",
      [
        Alcotest.test_case "engine event logs" `Quick test_engine;
        Alcotest.test_case "policy registry" `Quick test_registry;
        Alcotest.test_case "policy swap" `Quick test_swap;
        Alcotest.test_case "what-if" `Quick test_what_if;
        Alcotest.test_case "serve merged logs" `Quick test_serve;
        Alcotest.test_case "mapper orderings" `Quick test_orderings;
        Alcotest.test_case "Runner.evaluate metrics" `Quick test_evaluate;
      ] );
  ]
