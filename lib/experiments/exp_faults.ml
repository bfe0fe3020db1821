module Prng = Mcs_prng.Prng
module Strategy = Mcs_sched.Strategy
module Metrics = Mcs_metrics.Metrics
module Table = Mcs_util.Table
module Engine = Mcs_online.Engine
module Policy = Mcs_online.Policy
module Fault = Mcs_fault.Fault

type point = {
  strategy : Strategy.t;
  level : string;
  unfairness : float;
  relative_makespan : float;
  kills : float;
  retries : float;
}

let levels =
  [
    ("none", None);
    ( "mild",
      Some
        {
          Fault.default with
          Fault.mttf = 3000.;
          mttr = 120.;
          task_fail_p = 0.02;
        } );
    ( "moderate",
      Some
        {
          Fault.default with
          Fault.mttf = 1500.;
          mttr = 120.;
          task_fail_p = 0.05;
        } );
    ( "severe",
      Some
        {
          Fault.default with
          Fault.mttf = 750.;
          mttr = 120.;
          task_fail_p = 0.1;
        } );
  ]

let strategies = Strategy.paper_eight

(* One scenario under every (strategy, level) pair. Makespans are the
   engine's own virtual times: the fluid replay knows nothing of
   outages, so estimated timing is the consistent yardstick across
   levels (the level-"none" column is the fault-free engine). Every
   reschedule generation and the final fault audit run under the
   invariant analyzer — a violated FAULT/ON/MAP rule aborts the
   experiment instead of skewing it. *)
let scenario_metrics platform ptgs ~release ~fault_seed =
  let own =
    Array.of_list
      (List.map
         (fun ptg ->
           Runner.makespan_alone ~timing:Runner.Estimated platform ptg)
         ptgs)
  in
  let apps = List.mapi (fun i ptg -> (ptg, release.(i))) ptgs in
  let results =
    List.concat_map
      (fun (level, config) ->
        let faults =
          Option.map
            (fun config -> Fault.generate ~seed:fault_seed platform config)
            config
        in
        List.map
          (fun strategy ->
            let r =
              Engine.run ~check:Mcs_check.Check.fail_on_error ?faults
                ~policy:(Policy.make strategy) platform apps
            in
            let unfairness =
              Metrics.unfairness_of_makespans ~own ~multi:r.Engine.responses
            in
            let global = Mcs_util.Floatx.maximum r.Engine.responses in
            ( strategy,
              level,
              unfairness,
              global,
              float_of_int r.Engine.stats.Engine.kills,
              float_of_int r.Engine.stats.Engine.task_failures ))
          strategies)
      levels
  in
  let best =
    List.fold_left
      (fun acc (_, _, _, global, _, _) -> Float.min acc global)
      Float.infinity results
  in
  List.map
    (fun (strategy, level, unfairness, global, kills, retries) ->
      ( strategy,
        level,
        unfairness,
        Metrics.relative_makespan global ~best,
        kills,
        retries ))
    results

let compute ?runs ?(count = 6) ?(seed = 523) ?(mean_interarrival = 30.) () =
  let runs = match runs with Some r -> r | None -> Sweep.runs_from_env () in
  let per_scenario =
    Mcs_util.Parmap.map
      (fun (i, (platform, ptgs)) ->
        let rng = Prng.create ~seed:(seed + (count * 31) + List.length ptgs) in
        let release = Workload.releases rng ~count ~mean:mean_interarrival in
        scenario_metrics platform ptgs ~release
          ~fault_seed:(seed + (257 * i) + 1))
      (List.mapi
         (fun i s -> (i, s))
         (Sweep.scenarios ~family:Workload.Random_mixed_scenarios ~count ~runs
            ~seed))
  in
  List.concat_map
    (fun (level, _) ->
      List.map
        (fun strategy ->
          let mine =
            List.map
              (fun rs ->
                let _, _, unf, rel, kills, retries =
                  List.find
                    (fun (s, l, _, _, _, _) -> s = strategy && l = level)
                    rs
                in
                (unf, rel, kills, retries))
              per_scenario
          in
          {
            strategy;
            level;
            unfairness = Sweep.mean_over (fun (u, _, _, _) -> u) mine;
            relative_makespan = Sweep.mean_over (fun (_, r, _, _) -> r) mine;
            kills = Sweep.mean_over (fun (_, _, k, _) -> k) mine;
            retries = Sweep.mean_over (fun (_, _, _, t) -> t) mine;
          })
        strategies)
    levels

let table ?runs () =
  let points = compute ?runs () in
  let level_names = List.map fst levels in
  let t =
    Table.create
      ~title:
        "Fault injection (X8) — unfairness / relative response time per \
         failure level, all eight β strategies (dynamic online engine)"
      ~header:("strategy" :: level_names)
  in
  List.iter
    (fun strategy ->
      Table.add_row t
        (Strategy.name strategy
        :: List.map
             (fun level ->
               match
                 List.find_opt
                   (fun p -> p.strategy = strategy && p.level = level)
                   points
               with
               | Some p ->
                 Printf.sprintf "%.2f / %.2f" p.unfairness p.relative_makespan
               | None -> "-")
             level_names))
    strategies;
  t
