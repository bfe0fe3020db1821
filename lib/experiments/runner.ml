module Pipeline = Mcs_sched.Pipeline
module Allocation = Mcs_sched.Allocation
module Alloc_arena = Mcs_sched.Alloc_arena
module Schedule = Mcs_sched.Schedule
module Strategy = Mcs_sched.Strategy
module Metrics = Mcs_metrics.Metrics
module Floatx = Mcs_util.Floatx
module Obs = Mcs_obs.Obs

type timing = Estimated | Simulated

type run_metrics = {
  strategy : Strategy.t;
  makespans : float array;
  slowdowns : float array;
  unfairness : float;
  global_makespan : float;
  avg_makespan : float;
}

let simulated_makespans ?release platform schedules =
  Obs.with_span "sim.replay" @@ fun () ->
  let sim = Mcs_sim.Replay.run ?release platform schedules in
  sim.Mcs_sim.Replay.makespans

let own_makespan ?config ?cache ?arena ~timing platform ptg =
  let sched = Pipeline.schedule_alone ?config ?cache ?arena platform ptg in
  match timing with
  | Estimated -> sched.Schedule.makespan
  | Simulated -> (simulated_makespans platform [ sched ]).(0)

let makespan_alone ?(timing = Simulated) platform ptg =
  own_makespan ~timing platform ptg

let evaluate ?config ?release platform ptgs strategies =
  if ptgs = [] then invalid_arg "Runner.evaluate: no applications";
  Obs.with_span "runner.evaluate" @@ fun () ->
  (* One trajectory cache per PTG, shared by the baseline and every
     strategy: each allocates the same PTG under another β, so later
     requests replay what earlier ones recorded. *)
  let caches = List.map (fun _ -> Allocation.cache_create ()) ptgs in
  let arena = Alloc_arena.create () in
  let own =
    Obs.with_span "runner.baselines" @@ fun () ->
    Array.of_list
      (List.map2
         (fun ptg cache ->
           own_makespan ?config ~cache ~arena ~timing:Simulated platform ptg)
         ptgs caches)
  in
  let response completions =
    match release with
    | None -> completions
    | Some r -> Array.mapi (fun i c -> c -. r.(i)) completions
  in
  List.map
    (fun strategy ->
      (* Fail fast on broken invariants: experiment numbers computed
         from an illegal schedule are worse than no numbers. *)
      let procedure =
        (Option.value config ~default:Pipeline.default_config)
          .Pipeline.procedure
      in
      let schedules =
        Pipeline.schedule_concurrent ?config ?release
          ~check:
            (Mcs_check.Check.pipeline_hook ~procedure ?release ~strategy
               platform)
          ~caches ~arena ~strategy platform ptgs
      in
      let makespans =
        response (simulated_makespans ?release platform schedules)
      in
      let slowdowns =
        Array.mapi
          (fun i m -> Metrics.slowdown ~own:own.(i) ~multi:m)
          makespans
      in
      {
        strategy;
        makespans;
        slowdowns;
        unfairness = Metrics.unfairness slowdowns;
        global_makespan = Floatx.maximum makespans;
        avg_makespan = Floatx.mean makespans;
      })
    strategies
