module Schedule = Mcs_sched.Schedule
module Mheft = Mcs_sched.Mheft
module Pipeline = Mcs_sched.Pipeline
module Table = Mcs_util.Table

type stats = {
  algorithm : string;
  mean_relative_makespan : float;
  mean_efficiency : float;
}

let algorithms =
  [
    ("HEFT", fun platform ptg -> Mheft.schedule_heft platform ptg);
    ("M-HEFT", fun platform ptg -> Mheft.schedule platform ptg);
    ( "M-HEFT eff>=0.5",
      fun platform ptg ->
        Mheft.schedule
          ~options:{ Mheft.default_options with min_efficiency = 0.5 }
          platform ptg );
    ( "SCRAP-MAX beta=1 (HCPA)",
      fun platform ptg -> Pipeline.schedule_alone platform ptg );
  ]

let efficiency platform sched =
  match Schedule.parallel_efficiency ~platform sched with
  | 0. -> 1. (* degenerate empty schedule: count as perfectly efficient *)
  | e -> e

(* One application per scenario, which is perfectly fair by itself. *)
let compute ?runs () =
  List.map2
    (fun (algorithm, _) (m : Sweep.mean) ->
      {
        algorithm;
        mean_relative_makespan = m.relative_makespan;
        mean_efficiency = m.extras.(0);
      })
    algorithms
    (Sweep.compare ?runs ~family:Workload.Random_mixed_scenarios ~count:1
       ~seed:77 (fun _ platform ptgs ->
         List.map
           (fun (_, algo) ->
             let sched = algo platform (List.hd ptgs) in
             {
               Sweep.unfairness = 0.;
               makespan = sched.Schedule.makespan;
               extras = [| efficiency platform sched |];
             })
           algorithms))

let table ?runs () =
  let stats = compute ?runs () in
  let t =
    Table.create
      ~title:
        "Single-PTG comparison — makespan vs parallel efficiency (random \
         PTGs, 4 platforms)"
      ~header:[ "algorithm"; "relative makespan"; "parallel efficiency" ]
  in
  List.iter
    (fun s ->
      Table.add_row t
        [
          s.algorithm;
          Printf.sprintf "%.2f" s.mean_relative_makespan;
          Printf.sprintf "%.0f%%" (100. *. s.mean_efficiency);
        ])
    stats;
  t
