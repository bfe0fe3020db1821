module Strategy = Mcs_sched.Strategy
module Pipeline = Mcs_sched.Pipeline
module Metrics = Mcs_metrics.Metrics
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

(* The acceptance set. *)
let strategies =
  [
    Strategy.Equal_share;
    Strategy.Proportional Strategy.Work;
    Strategy.Weighted (Strategy.Work, 0.7);
  ]

let arms =
  List.concat_map
    (fun strategy ->
      List.map (fun mode -> (strategy, mode)) [ Offline; Online ])
    strategies

let scenario platform ptgs ~release =
  let own =
    Array.of_list
      (List.map (fun ptg -> Runner.makespan_alone platform ptg) ptgs)
  in
  List.map
    (fun (strategy, mode) ->
      (* Both modes run under the invariant analyzer: a broken schedule
         aborts the experiment instead of skewing it. *)
      let schedules =
        match mode with
        | Offline ->
          Pipeline.schedule_concurrent ~release
            ~check:(Mcs_check.Check.pipeline_hook ~release ~strategy platform)
            ~strategy platform ptgs
        | Online ->
          let apps = List.mapi (fun i ptg -> (ptg, release.(i))) ptgs in
          (Engine.run ~check:Mcs_check.Check.fail_on_error
             ~policy:(Policy.make strategy) platform apps)
            .Engine.schedules
      in
      let sim = Mcs_sim.Replay.run ~release platform schedules in
      let responses =
        Array.mapi (fun i c -> c -. release.(i)) sim.Mcs_sim.Replay.makespans
      in
      let slowdowns =
        Array.mapi (fun i m -> Metrics.slowdown ~own:own.(i) ~multi:m) responses
      in
      {
        Sweep.unfairness = Metrics.unfairness slowdowns;
        makespan = Mcs_util.Floatx.maximum responses;
        extras = [||];
      })
    arms

(* X5's seed and release streams, so the offline rows replay X5's
   scenarios. *)
let seed = Exp_arrivals.seed

let compute ?runs ?(counts = Workload.paper_counts) () =
  List.concat_map
    (fun count ->
      List.map2
        (fun (strategy, mode) (m : Sweep.mean) ->
          {
            strategy;
            mode;
            count;
            unfairness = m.unfairness;
            relative_makespan = m.relative_makespan;
          })
        arms
        (Sweep.compare ?runs ~family:Workload.Random_mixed_scenarios ~count
           ~seed (fun i platform ptgs ->
             scenario platform ptgs ~release:(Sweep.releases ~seed ~count i))))
    counts

let table ?runs () =
  Sweep.grid
    ~title:
      "Online dynamic β (event-driven engine) vs offline approximation — \
       unfairness / relative response time"
    ~corner:"strategy / mode"
    ~row:(fun p -> Strategy.name p.strategy ^ " " ^ mode_name p.mode)
    ~column:(fun p -> Printf.sprintf "%d PTGs" p.count)
    ~cell:(fun p -> Sweep.pair p.unfairness p.relative_makespan)
    (compute ?runs ())
