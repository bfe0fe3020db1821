module Strategy = Mcs_sched.Strategy
module Malleability = Mcs_sched.Malleability
module Metrics = Mcs_metrics.Metrics
module Engine = Mcs_online.Engine
module Policy = Mcs_online.Policy
module Fault = Mcs_fault.Fault

type point = {
  mode : string;
  level : string;
  unfairness : float;
  relative_makespan : float;
  resizes : float;
  win_rate : float;
}

let model =
  {
    Malleability.default with
    Malleability.quantum = 30.;
    redist_cost = 0.05;
    shrink_active_above = 6;
    grow_active_below = 2;
  }

let modes = [ ("moldable", None); ("malleable", Some model) ]

let levels =
  [
    ("none", None);
    ( "moderate",
      Some
        {
          Fault.default with
          Fault.mttf = 1500.;
          mttr = 120.;
          task_fail_p = 0.05;
        } );
  ]

let strategy = Strategy.Weighted (Strategy.Work, 0.7)

(* Bursts of three simultaneous submissions separated by long quiet
   gaps: each burst spikes the active set (running tasks shrink to make
   room) and each gap drains it (the survivors' running tasks grow onto
   the idle processors) — the access pattern malleability exists for. *)
let burst_release count = Array.init count (fun i -> float_of_int (i / 3) *. 150.)

(* One scenario under every (level, mode) pair: virtual response times,
   engine resize count, and whether the mode's makespan strictly beats
   its rival's at the same fault level. Every run is audited — the
   per-generation online rules, then the execution audit, which checks
   the FAULT and MAL families in every mode; a violation aborts the
   experiment rather than skewing it. *)
let scenario platform ptgs ~fault_seed =
  let own =
    Array.of_list
      (List.map
         (fun ptg ->
           Runner.makespan_alone ~timing:Runner.Estimated platform ptg)
         ptgs)
  in
  let release = burst_release (List.length ptgs) in
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
          (fun (mode, malleability) ->
            let r =
              Engine.run ~check:Mcs_check.Check.fail_on_error ?faults
                ~policy:(Policy.make ?malleability strategy)
                platform apps
            in
            ( level,
              mode,
              Metrics.unfairness_of_makespans ~own ~multi:r.Engine.responses,
              Mcs_util.Floatx.maximum r.Engine.responses,
              float_of_int r.Engine.stats.Engine.resizes ))
          modes)
      levels
  in
  List.map
    (fun (level, mode, unfairness, makespan, resizes) ->
      let rival =
        List.fold_left
          (fun acc (l, m, _, g, _) ->
            if l = level && m <> mode then Float.min acc g else acc)
          Float.infinity results
      in
      {
        Sweep.unfairness;
        makespan;
        extras = [| resizes; (if makespan < rival then 1. else 0.) |];
      })
    results

let seed = 911

let compute ?runs ?(count = 6) () =
  List.map2
    (fun (level, mode) (m : Sweep.mean) ->
      {
        mode;
        level;
        unfairness = m.unfairness;
        relative_makespan = m.relative_makespan;
        resizes = m.extras.(0);
        win_rate = m.extras.(1);
      })
    (List.concat_map
       (fun (level, _) -> List.map (fun (mode, _) -> (level, mode)) modes)
       levels)
    (Sweep.compare ?runs ~family:Workload.Random_mixed_scenarios ~count ~seed
       (fun i platform ptgs ->
         scenario platform ptgs ~fault_seed:(seed + (257 * i) + 1)))

let table ?runs () =
  Sweep.grid
    ~title:
      "Malleable vs moldable execution (X9) — unfairness / relative \
       response time (mean resizes, makespan win rate) under burst \
       submissions"
    ~corner:"mode" ~row:(fun p -> p.mode) ~column:(fun p -> p.level)
    ~cell:(fun p ->
      Printf.sprintf "%s (%.1f rsz, %.0f%% win)"
        (Sweep.pair p.unfairness p.relative_makespan)
        p.resizes (100. *. p.win_rate))
    (compute ?runs ())
