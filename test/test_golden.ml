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
  let clock = ref 0. in
  let gaps = Prng.create ~seed:(seed + 1) in
  List.map
    (fun ptg ->
      let r = !clock in
      clock := !clock +. Prng.exponential gaps ~mean;
      (ptg, r))
    ptgs

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

(* The engine's log, the run's completions and its resize count. With
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
  let tail b () = Array.iter (add_float b) r.Engine.completions in
  let log b = List.iter (render_event b) (List.rev !events) in
  (digest_of (fun b () -> log b; tail b ()) [ () ], r.Engine.stats)

let any (_ : Engine.stats) = true

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
      let got, stats = run () in
      Alcotest.(check bool) (name ^ ": run reaches its paths") true
        (reaches stats);
      Alcotest.(check string) name expected got)
    engine_cases

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
        let got, st = engine_run ~faults ~policy rennes apps in
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
  Engine.set_policy ~reschedule:true s (Policy.of_name "eager" ~base);
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
        Alcotest.test_case "Runner.evaluate metrics" `Quick test_evaluate;
      ] );
  ]
