module Prng = Mcs_prng.Prng
module Strategy = Mcs_sched.Strategy
module Metrics = Mcs_metrics.Metrics
module Table = Mcs_util.Table

type point = {
  strategy : Strategy.t;
  count : int;
  unfairness : float;
  relative_makespan : float;
}

let strategies =
  [
    Strategy.Selfish;
    Strategy.Equal_share;
    Strategy.Weighted (Strategy.Width, 0.5);
    Strategy.Weighted (Strategy.Work, 0.7);
  ]

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
            (* Poisson arrivals, deterministic in the scenario. *)
            let rng =
              Prng.create ~seed:(seed + (count * 31) + List.length ptgs)
            in
            let release =
              Workload.releases rng ~count ~mean:mean_interarrival
            in
            let results = Runner.evaluate ~release platform ptgs strategies in
            let best =
              List.fold_left
                (fun acc r -> Float.min acc r.Runner.global_makespan)
                Float.infinity results
            in
            List.map
              (fun r ->
                ( r.Runner.unfairness,
                  Metrics.relative_makespan r.Runner.global_makespan ~best ))
              results)
          (Sweep.scenarios ~family:Workload.Random_mixed_scenarios ~count
             ~runs ~seed)
      in
      List.mapi
        (fun si strategy ->
          let mine = List.map (fun rs -> List.nth rs si) per_scenario in
          {
            strategy;
            count;
            unfairness = Sweep.mean_over fst mine;
            relative_makespan = Sweep.mean_over snd mine;
          })
        strategies)
    counts

let table ?runs () =
  let points = compute ?runs () in
  let counts = List.sort_uniq compare (List.map (fun p -> p.count) points) in
  let t =
    Table.create
      ~title:
        "Staggered submissions (Poisson arrivals, mean 30 s) — unfairness / \
         relative response time"
      ~header:
        ("strategy"
        :: List.map (fun c -> string_of_int c ^ " PTGs") counts)
  in
  List.iter
    (fun strategy ->
      Table.add_row t
        (Strategy.name strategy
        :: List.map
             (fun count ->
               match
                 List.find_opt
                   (fun p -> p.strategy = strategy && p.count = count)
                   points
               with
               | Some p ->
                 Printf.sprintf "%.2f / %.2f" p.unfairness p.relative_makespan
               | None -> "-")
             counts))
    strategies;
  t
