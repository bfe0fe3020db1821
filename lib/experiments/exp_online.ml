module Prng = Mcs_prng.Prng
module Strategy = Mcs_sched.Strategy
module Pipeline = Mcs_sched.Pipeline
module Metrics = Mcs_metrics.Metrics
module Table = Mcs_util.Table
module Engine = Mcs_online.Engine
module Policy = Mcs_online.Policy

type mode = Offline | Online

let mode_name = function Offline -> "offline" | Online -> "online"

type point = {
  strategy : Strategy.t;
  mode : mode;
  count : int;
  unfairness : float;
  relative_makespan : float;
}

let strategies =
  [
    Strategy.Equal_share;
    Strategy.Proportional Strategy.Work;
    Strategy.Weighted (Strategy.Work, 0.7);
  ]

let modes = [ Offline; Online ]

let scenario_metrics platform ptgs ~release =
  let own =
    Array.of_list
      (List.map (fun ptg -> Runner.makespan_alone platform ptg) ptgs)
  in
  let evaluate schedules =
    let sim = Mcs_sim.Replay.run ~release platform schedules in
    let responses =
      Array.mapi (fun i c -> c -. release.(i)) sim.Mcs_sim.Replay.makespans
    in
    let slowdowns =
      Array.mapi (fun i m -> Metrics.slowdown ~own:own.(i) ~multi:m) responses
    in
    (Metrics.unfairness slowdowns, Mcs_util.Floatx.maximum responses)
  in
  let results =
    List.concat_map
      (fun strategy ->
        List.map
          (fun mode ->
            (* Both modes run under the invariant analyzer: a broken
               schedule aborts the experiment instead of skewing it. *)
            let schedules =
              match mode with
              | Offline ->
                Pipeline.schedule_concurrent ~release
                  ~check:
                    (Mcs_check.Check.pipeline_hook ~release ~strategy platform)
                  ~strategy platform ptgs
              | Online ->
                let apps =
                  List.mapi (fun i ptg -> (ptg, release.(i))) ptgs
                in
                (Engine.run ~check:Mcs_check.Check.fail_on_error
                   ~policy:(Policy.make strategy) platform apps)
                  .Engine.schedules
            in
            let unfairness, global = evaluate schedules in
            (strategy, mode, unfairness, global))
          modes)
      strategies
  in
  let best =
    List.fold_left
      (fun acc (_, _, _, global) -> Float.min acc global)
      Float.infinity results
  in
  List.map
    (fun (strategy, mode, unfairness, global) ->
      ( strategy,
        mode,
        unfairness,
        Metrics.relative_makespan global ~best ))
    results

let compute ?runs ?(counts = Workload.paper_counts) ?(seed = 411)
    ?(mean_interarrival = 30.) () =
  let runs =
    match runs with Some r -> r | None -> Sweep.runs_from_env ()
  in
  List.concat_map
    (fun count ->
      let per_scenario =
        Mcs_util.Parmap.map
          (fun (platform, ptgs) ->
            (* Same arrival stream as Exp_arrivals (seed formula
               included) so the offline columns are directly comparable
               across the two tables. *)
            let rng =
              Prng.create ~seed:(seed + (count * 31) + List.length ptgs)
            in
            let release =
              Workload.releases rng ~count ~mean:mean_interarrival
            in
            scenario_metrics platform ptgs ~release)
          (Sweep.scenarios ~family:Workload.Random_mixed_scenarios ~count
             ~runs ~seed)
      in
      List.concat_map
        (fun strategy ->
          List.map
            (fun mode ->
              let mine =
                List.map
                  (fun rs ->
                    let _, _, unf, rel =
                      List.find
                        (fun (s, m, _, _) -> s = strategy && m = mode)
                        rs
                    in
                    (unf, rel))
                  per_scenario
              in
              {
                strategy;
                mode;
                count;
                unfairness = Sweep.mean_over fst mine;
                relative_makespan = Sweep.mean_over snd mine;
              })
            modes)
        strategies)
    counts

let table ?runs () =
  let points = compute ?runs () in
  let counts = List.sort_uniq compare (List.map (fun p -> p.count) points) in
  let t =
    Table.create
      ~title:
        "Online dynamic β (event-driven engine) vs offline approximation — \
         unfairness / relative response time"
      ~header:
        ("strategy / mode"
        :: List.map (fun c -> string_of_int c ^ " PTGs") counts)
  in
  List.iter
    (fun strategy ->
      List.iter
        (fun mode ->
          Table.add_row t
            ((Strategy.name strategy ^ " " ^ mode_name mode)
            :: List.map
                 (fun count ->
                   match
                     List.find_opt
                       (fun p ->
                         p.strategy = strategy && p.mode = mode
                         && p.count = count)
                       points
                   with
                   | Some p ->
                     Printf.sprintf "%.2f / %.2f" p.unfairness
                       p.relative_makespan
                   | None -> "-")
                 counts))
        modes)
    strategies;
  t
