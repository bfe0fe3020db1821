module P = Mcs_platform.Platform
module Prng = Mcs_prng.Prng
module Allocation = Mcs_sched.Allocation
module Reference_cluster = Mcs_sched.Reference_cluster
module List_mapper = Mcs_sched.List_mapper
module Schedule = Mcs_sched.Schedule
module Table = Mcs_util.Table

type stats = {
  beta : float;
  scenarios : int;
  level_ok : int;
  power_ok : int;
}

let default_betas = List.init 10 (fun i -> float_of_int (i + 1) /. 10.)

let compute ?runs ?(betas = default_betas) ?(seed = 99) () =
  let runs =
    match runs with Some r -> r | None -> Sweep.runs_from_env ()
  in
  let platforms = Mcs_platform.Grid5000.all () in
  List.map
    (fun beta ->
      let level_ok = ref 0 and power_ok = ref 0 and scenarios = ref 0 in
      List.iteri
        (fun pi platform ->
          let ref_cluster = Reference_cluster.of_platform platform in
          for run = 0 to runs - 1 do
            let rng =
              Prng.create
                ~seed:
                  ((seed * 7919) + (pi * 1009) + (run * 17)
                  + int_of_float (beta *. 1000.))
            in
            let ptg =
              List.hd
                (Workload.draw rng Workload.Random_mixed_scenarios ~count:1)
            in
            let alloc =
              Allocation.allocate ref_cluster platform ~beta ptg
            in
            incr scenarios;
            (* ALLOC002, the checker's SCRAP-MAX level rule. *)
            let level_violated = ref false in
            Mcs_check.Alloc_check.check_level_share
              ~emit:(fun _ -> level_violated := true)
              ~budget:(Allocation.budget_of ref_cluster ~beta)
              ~beta ~dag:ptg.Mcs_ptg.Ptg.dag
              ~is_virtual:(Mcs_ptg.Ptg.is_virtual ptg) alloc.Allocation.procs;
            if not !level_violated then incr level_ok;
            let schedules =
              List_mapper.run platform ref_cluster
                [ (ptg, alloc.Allocation.procs) ]
            in
            let sched = List.hd schedules in
            let used = Schedule.used_power_avg sched ~platform in
            (* Tolerance mirrors the paper's "99% of scenarios": the
               1-processor-per-task minimum can exceed tiny shares. *)
            if used <= (beta *. P.total_power platform) +. 1e-6 then
              incr power_ok
          done)
        platforms;
      { beta; scenarios = !scenarios; level_ok = !level_ok;
        power_ok = !power_ok })
    betas

let table ?runs () =
  let stats = compute ?runs () in
  let t =
    Table.create
      ~title:
        "Constraint audit — SCRAP-MAX allocations vs resource constraint \
         (random PTGs, 4 platforms)"
      ~header:
        [ "beta"; "scenarios"; "level constraint ok"; "avg power within \
           beta share" ]
  in
  List.iter
    (fun s ->
      Table.add_row t
        [
          Printf.sprintf "%.1f" s.beta;
          string_of_int s.scenarios;
          Printf.sprintf "%d (%.0f%%)" s.level_ok
            (100. *. float_of_int s.level_ok /. float_of_int s.scenarios);
          Printf.sprintf "%d (%.0f%%)" s.power_ok
            (100. *. float_of_int s.power_ok /. float_of_int s.scenarios);
        ])
    stats;
  t
