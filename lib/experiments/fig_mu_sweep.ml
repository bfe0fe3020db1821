module Strategy = Mcs_sched.Strategy
module Table = Mcs_util.Table

type point = {
  mu : float;
  count : int;
  unfairness : float;
  avg_makespan : float;
}

let paper_mus = [ 0.; 0.3; 0.5; 0.7; 0.8; 0.9; 1. ]

let compute ?runs ?(counts = Workload.paper_counts) ?(mus = paper_mus) () =
  let strategies =
    List.map (fun mu -> Strategy.Weighted (Strategy.Work, mu)) mus
  in
  List.concat_map
    (fun count ->
      List.map2
        (fun mu (m : Sweep.mean) ->
          { mu; count; unfairness = m.unfairness; avg_makespan = m.extras.(0) })
        mus
        (Sweep.compare ?runs ~family:Workload.Random_mixed_scenarios ~count
           ~seed:2008 (fun _ platform ptgs ->
             List.map Sweep.of_runner
               (Runner.evaluate platform ptgs strategies))))
    counts

let tables points =
  let series metric title =
    Sweep.grid
      ~title:(title ^ " vs mu — WPS-work, random PTGs")
      ~corner:"#PTGs"
      ~row:(fun p -> Printf.sprintf "%d PTGs" p.count)
      ~column:(fun p -> Printf.sprintf "mu=%.1f" p.mu)
      ~cell:(fun p -> Table.fmt_float (metric p))
      points
  in
  [
    series (fun p -> p.unfairness) "Unfairness";
    series (fun p -> p.avg_makespan) "Average makespan (s)";
  ]

let figure2 ?runs () = tables (compute ?runs ())
