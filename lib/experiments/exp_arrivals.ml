module Strategy = Mcs_sched.Strategy

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

let seed = 411

let compute ?runs ?(counts = Workload.paper_counts) () =
  List.concat_map
    (fun count ->
      List.map2
        (fun strategy (m : Sweep.mean) ->
          {
            strategy;
            count;
            unfairness = m.unfairness;
            relative_makespan = m.relative_makespan;
          })
        strategies
        (Sweep.compare ?runs ~family:Workload.Random_mixed_scenarios ~count
           ~seed (fun i platform ptgs ->
             List.map Sweep.of_runner
               (Runner.evaluate
                  ~release:(Sweep.releases ~seed ~count i)
                  platform ptgs strategies))))
    counts

let table ?runs () =
  Sweep.grid
    ~title:
      "Staggered submissions (Poisson arrivals, mean 30 s) — unfairness / \
       relative response time"
    ~corner:"strategy"
    ~row:(fun p -> Strategy.name p.strategy)
    ~column:(fun p -> Printf.sprintf "%d PTGs" p.count)
    ~cell:(fun p -> Sweep.pair p.unfairness p.relative_makespan)
    (compute ?runs ())
