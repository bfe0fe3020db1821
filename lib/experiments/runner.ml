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
  (Mcs_sim.Replay.run ?release platform schedules).Mcs_sim.Replay.makespans

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
  let procedure =
    (Option.value config ~default:Pipeline.default_config).Pipeline.procedure
  in
  (* Mapping and replay are pure functions of the platform, the release
     dates, the mapper options, the PTGs and the allocations, so each
     distinct allocation vector is mapped and replayed once: a strategy
     whose allocations equal an earlier one's takes its schedules and
     makespans. Allocations are compared node by node, in PTG order. *)
  let same_allocations a b =
    Array.for_all2
      (fun (x : Allocation.result) (y : Allocation.result) ->
        Array.for_all2 Int.equal x.Allocation.procs y.Allocation.procs)
      a b
  in
  let runs = ref [] in
  List.map
    (fun strategy ->
      let prepared, schedules, known =
        Obs.with_span "pipeline.schedule" @@ fun () ->
        let prepared =
          Pipeline.prepare ?config ~caches ~arena ~strategy platform ptgs
        in
        let known =
          List.find_opt
            (fun (allocations, _, _) ->
              same_allocations allocations prepared.Pipeline.allocations)
            !runs
        in
        let schedules =
          match known with
          | Some (_, schedules, _) -> schedules
          | None -> Pipeline.map ?config ?release platform ptgs prepared
        in
        (* Every strategy's audit runs on its own β and allocations.
           Fail fast on broken invariants: experiment numbers computed
           from an illegal schedule are worse than no numbers. *)
        Mcs_check.Check.pipeline_hook ~procedure ?release ~strategy platform
          ~prepared schedules;
        (prepared, schedules, known)
      in
      let makespans =
        match known with
        | Some (_, _, makespans) -> Array.copy makespans
        | None ->
          let makespans =
            response (simulated_makespans ?release platform schedules)
          in
          runs :=
            (prepared.Pipeline.allocations, schedules, makespans) :: !runs;
          makespans
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
