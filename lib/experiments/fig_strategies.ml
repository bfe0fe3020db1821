module Strategy = Mcs_sched.Strategy
module Table = Mcs_util.Table

type point = {
  count : int;
  strategy : Strategy.t;
  unfairness : float;
  relative_makespan : float;
  avg_makespan : float;
}

(* Every strategy runs in one [Runner.evaluate] per scenario, so its
   per-PTG trajectory caches are shared across strategies. *)
let compute ?runs ?(counts = Workload.paper_counts) ~family ~strategies () =
  List.concat_map
    (fun count ->
      List.map2
        (fun strategy (m : Sweep.mean) ->
          {
            count;
            strategy;
            unfairness = m.unfairness;
            relative_makespan = m.relative_makespan;
            avg_makespan = m.extras.(0);
          })
        strategies
        (Sweep.compare ?runs ~family ~count ~seed:2008 (fun _ platform ptgs ->
             List.map Sweep.of_runner
               (Runner.evaluate platform ptgs strategies))))
    counts

let tables ~family points =
  let series metric title =
    Sweep.grid
      ~title:(Printf.sprintf "%s — %s" title (Workload.family_name family))
      ~corner:"strategy"
      ~row:(fun p -> Strategy.name p.strategy)
      ~column:(fun p -> Printf.sprintf "%d PTGs" p.count)
      ~cell:(fun p -> Table.fmt_float (metric p))
      points
  in
  [
    series (fun p -> p.unfairness) "Unfairness";
    series (fun p -> p.relative_makespan) "Average relative makespan";
  ]

let figure3 ?runs () =
  let family = Workload.Random_mixed_scenarios in
  tables ~family (compute ?runs ~family ~strategies:Strategy.paper_eight ())

let figure4 ?runs () =
  let family = Workload.Fft_ptgs in
  (* Section 7 tunes µ to 0.3 for WPS-width on FFT graphs. *)
  let strategies =
    List.map
      (function
        | Strategy.Weighted (Strategy.Width, _) ->
          Strategy.Weighted (Strategy.Width, 0.3)
        | s -> s)
      Strategy.paper_eight
  in
  tables ~family (compute ?runs ~family ~strategies ())

let figure5 ?runs () =
  let family = Workload.Strassen_ptgs in
  tables ~family (compute ?runs ~family ~strategies:Strategy.paper_six ())
