module Strategy = Mcs_sched.Strategy
module Metrics = Mcs_metrics.Metrics
module Engine = Mcs_online.Engine
module Policy = Mcs_online.Policy
module Fault = Mcs_fault.Fault

type point = {
  strategy : Strategy.t;
  level : string;
  unfairness : float;
  relative_makespan : float;
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

(* One scenario under every (level, strategy) pair. Makespans are the
   engine's own virtual times: the fluid replay knows nothing of
   outages, so estimated timing is the consistent yardstick across
   levels (the level-"none" column is the fault-free engine). Every
   reschedule generation and the final execution audit run under the
   invariant analyzer — a violated FAULT/MAL/ON/MAP rule aborts the
   experiment instead of skewing it. *)
let scenario platform ptgs ~release ~fault_seed =
  let own =
    Array.of_list
      (List.map
         (fun ptg ->
           Runner.makespan_alone ~timing:Runner.Estimated platform ptg)
         ptgs)
  in
  let apps = List.mapi (fun i ptg -> (ptg, release.(i))) ptgs in
  List.concat_map
    (fun (_, config) ->
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
          {
            Sweep.unfairness =
              Metrics.unfairness_of_makespans ~own ~multi:r.Engine.responses;
            makespan = Mcs_util.Floatx.maximum r.Engine.responses;
            extras = [||];
          })
        strategies)
    levels

let count = 6
let seed = 523

let compute ?runs () =
  List.map2
    (fun (level, strategy) (m : Sweep.mean) ->
      {
        strategy;
        level;
        unfairness = m.unfairness;
        relative_makespan = m.relative_makespan;
      })
    (List.concat_map
       (fun (level, _) -> List.map (fun s -> (level, s)) strategies)
       levels)
    (Sweep.compare ?runs ~family:Workload.Random_mixed_scenarios ~count ~seed
       (fun i platform ptgs ->
         scenario platform ptgs
           ~release:(Sweep.releases ~seed ~count i)
           ~fault_seed:(seed + (257 * i) + 1)))

let table ?runs () =
  Sweep.grid
    ~title:
      "Fault injection (X8) — unfairness / relative response time per \
       failure level, all eight β strategies (dynamic online engine)"
    ~corner:"strategy"
    ~row:(fun p -> Strategy.name p.strategy)
    ~column:(fun p -> p.level)
    ~cell:(fun p -> Sweep.pair p.unfairness p.relative_makespan)
    (compute ?runs ())
