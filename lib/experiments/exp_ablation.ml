module Strategy = Mcs_sched.Strategy
module Pipeline = Mcs_sched.Pipeline
module List_mapper = Mcs_sched.List_mapper
module Allocation = Mcs_sched.Allocation
module Table = Mcs_util.Table

let configs_table ~title ~seed ~makespan:(makespan_label, makespan) configs
    ?runs ?(counts = Workload.paper_counts) () =
  let cells =
    List.concat_map
      (fun count ->
        let means =
          Sweep.compare ?runs ~family:Workload.Random_mixed_scenarios ~count
            ~seed (fun _ platform ptgs ->
              List.map
                (fun (_, config) ->
                  Sweep.of_runner
                    (List.hd
                       (Runner.evaluate ~config platform ptgs
                          [ Strategy.Equal_share ])))
                configs)
        in
        let column prefix get =
          List.map2
            (fun (label, _) m -> (count, prefix ^ " " ^ label, get m))
            configs means
        in
        column "unfairness" (fun (m : Sweep.mean) -> m.unfairness)
        @ column makespan_label makespan)
      counts
  in
  Sweep.grid ~title ~corner:"#PTGs"
    ~row:(fun (count, _, _) -> string_of_int count)
    ~column:(fun (_, column, _) -> column)
    ~cell:(fun (_, _, x) -> Table.fmt_float x)
    cells

let global_makespan = ("makespan (s)", fun (m : Sweep.mean) -> m.makespan)

let packing_table ?runs ?counts () =
  configs_table
    ~title:"Ablation — allocation packing on/off (ES strategy, random PTGs)"
    ~seed:106 ~makespan:global_makespan
    [
      ("packing", Pipeline.default_config);
      ( "no packing",
        {
          Pipeline.default_config with
          mapper = { List_mapper.default_options with packing = false };
        } );
    ]
    ?runs ?counts ()

let procedure_table ?runs ?counts () =
  configs_table
    ~title:
      "Ablation — SCRAP vs SCRAP-MAX allocation (ES strategy, random PTGs)"
    ~seed:107 ~makespan:global_makespan
    [
      ("SCRAP-MAX", Pipeline.default_config);
      ("SCRAP", { Pipeline.default_config with procedure = Allocation.Scrap });
    ]
    ?runs ?counts ()
