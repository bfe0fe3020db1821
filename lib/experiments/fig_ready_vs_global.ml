module Platform = Mcs_platform.Platform
module Task = Mcs_taskmodel.Task
module Strategy = Mcs_sched.Strategy
module Pipeline = Mcs_sched.Pipeline
module List_mapper = Mcs_sched.List_mapper
module Schedule = Mcs_sched.Schedule
module Table = Mcs_util.Table

let toy_platform () =
  Platform.make ~name:"toy"
    [ { Platform.cluster_name = "duo"; procs = 2; gflops = 1.; switch = 0 } ]

(* A chain of perfectly sequential tasks (α = 1, so allocations stay at
   one processor) whose durations on a 1 GFlop/s processor are given in
   seconds; communications are free to keep the example about ordering. *)
let chain ~id durations =
  let tasks =
    Array.of_list
      (List.map
         (fun seconds ->
           Task.make ~data:(seconds *. 1e9) ~complexity:(Stencil 1.) ~alpha:1.)
         durations)
  in
  let edges =
    List.init
      (Array.length tasks - 1)
      (fun i -> (i, i + 1, 0.))
  in
  Mcs_ptg.Builder.build ~id ~name:(Printf.sprintf "chain%d" id) ~tasks ~edges

let config_of ordering =
  {
    Pipeline.default_config with
    mapper = { List_mapper.default_options with ordering };
  }

let illustration () =
  let platform = toy_platform () in
  let big = chain ~id:0 [ 10.; 8.; 6.; 4. ] in
  let small = chain ~id:1 [ 1.; 1. ] in
  let table =
    Table.create
      ~title:
        "Figure 1 — ready-task vs global ordering (big chain 10+8+6+4 s, \
         small chain 1+1 s, two processors, beta = 1/2)"
      ~header:[ "ordering"; "application"; "start (s)"; "makespan (s)" ]
  in
  List.iter
    (fun ordering ->
      let schedules =
        Pipeline.schedule_concurrent ~config:(config_of ordering)
          ~strategy:Strategy.Equal_share platform [ big; small ]
      in
      let name =
        match ordering with
        | List_mapper.Ready_tasks -> "ready tasks"
        | List_mapper.Global_fcfs -> "global (FCFS)"
        | List_mapper.Global_backfill -> "global (backfill)"
      in
      List.iteri
        (fun i sched ->
          let first_real_start =
            Array.fold_left
              (fun acc pl ->
                if Array.length pl.Schedule.procs > 0 then
                  Float.min acc pl.Schedule.start
                else acc)
              Float.infinity sched.Schedule.placements
          in
          Table.add_row table
            [
              (if i = 0 then name else "");
              (if i = 0 then "big" else "small");
              Table.fmt_float first_real_start;
              Table.fmt_float sched.Schedule.makespan;
            ])
        schedules)
    [ List_mapper.Ready_tasks; List_mapper.Global_fcfs;
      List_mapper.Global_backfill ];
  table

let aggregate ?runs ?counts () =
  Exp_ablation.configs_table
    ~title:
      "Mapping ablation — ready-task vs global FCFS vs conservative \
       backfilling (ES strategy, random PTGs)"
    ~seed:105
    ~makespan:("rel. makespan", fun m -> m.Sweep.relative_makespan)
    [
      ("ready", config_of List_mapper.Ready_tasks);
      ("fcfs", config_of List_mapper.Global_fcfs);
      ("backfill", config_of List_mapper.Global_backfill);
    ]
    ?runs ?counts ()

let tables ?runs () = [ illustration (); aggregate ?runs () ]
