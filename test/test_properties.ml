(* Cross-cutting invariants tying several modules together. *)

module Grid5000 = Mcs_platform.Grid5000
module P = Mcs_platform.Platform
module Task = Mcs_taskmodel.Task
module Ptg = Mcs_ptg.Ptg
module Prng = Mcs_prng.Prng
open Mcs_sched

let random_ptg ?(tasks = 20) seed =
  let rng = Prng.create ~seed in
  Mcs_ptg.Random_gen.generate rng
    { Mcs_ptg.Random_gen.default with tasks }

(* An absolute lower bound on any makespan of [ptg]: along the critical
   path every task needs at least its non-parallelizable fraction on the
   fastest processor. *)
let makespan_lower_bound platform ptg =
  let speed = P.max_speed platform in
  let bl =
    Mcs_dag.Dag.bottom_levels ptg.Ptg.dag
      ~node_weight:(fun v ->
        let task = ptg.Ptg.tasks.(v) in
        if Task.is_zero task then 0.
        else task.Task.alpha *. Task.seq_time task ~gflops:speed)
      ~edge_weight:(fun _ -> 0.)
  in
  bl.(Ptg.entry ptg)

let qcheck_makespan_above_lower_bound =
  QCheck.Test.make
    ~name:"schedule makespans respect the Amdahl critical-path lower bound"
    ~count:25
    QCheck.(pair (int_range 0 1000) (int_range 0 3))
    (fun (seed, platform_idx) ->
      let platform = List.nth (Grid5000.all ()) platform_idx in
      let ptgs = List.init 3 (fun i -> random_ptg ((seed * 3) + i)) in
      let schedules =
        Pipeline.schedule_concurrent ~strategy:Strategy.Equal_share platform
          ptgs
      in
      List.for_all2
        (fun ptg sched ->
          sched.Schedule.makespan
          >= makespan_lower_bound platform ptg -. 1e-6)
        ptgs schedules)

let qcheck_allocation_beta_monotone =
  QCheck.Test.make
    ~name:"a looser beta never lengthens the allocated critical path"
    ~count:40
    QCheck.(pair (int_range 0 2000) (int_range 0 3))
    (fun (seed, platform_idx) ->
      let platform = List.nth (Grid5000.all ()) platform_idx in
      let r = Reference_cluster.of_platform platform in
      let ptg = random_ptg seed in
      let cp beta =
        (Allocation.allocate r platform ~beta ptg).Allocation.critical_path
      in
      let tight = cp 0.2 and loose = cp 0.8 in
      loose <= tight +. 1e-9)

(* The allocator prices widths with its own copy of Amdahl's law
   ([Allocation.exec_at]), so the critical path it returns, scratch or
   cached, must be the bottom level that [Task]'s kernel gives over the
   returned [procs], float for float. The βs cover a miss, a fork, a
   rescale pair (0.2 and 0.2000001 share their per-level budget) and an
   exact hit. *)
let qcheck_allocator_amdahl_matches_task =
  QCheck.Test.make
    ~name:"allocated critical paths equal Task-priced bottom levels"
    ~count:150
    QCheck.(triple (int_range 0 100_000) (int_range 0 3) (int_range 0 59))
    (fun (seed, platform_idx, extra_tasks) ->
      let platform = List.nth (Grid5000.all ()) platform_idx in
      let r = Reference_cluster.of_platform platform in
      let ptg = random_ptg ~tasks:(1 + extra_tasks) seed in
      let matches (a : Allocation.result) =
        let bl =
          Mcs_dag.Dag.bottom_levels ptg.Ptg.dag
            ~node_weight:(fun v ->
              Reference_cluster.exec_time r ptg.Ptg.tasks.(v)
                ~procs:a.Allocation.procs.(v))
            ~edge_weight:(fun _ -> 0.)
        in
        Float.equal a.Allocation.critical_path bl.(Ptg.entry ptg)
      in
      List.for_all
        (fun procedure ->
          let cache = Allocation.cache_create () in
          let arena = Alloc_arena.create () in
          List.for_all
            (fun beta ->
              matches (Allocation.allocate ~procedure r platform ~beta ptg)
              && matches
                   (Allocation.allocate_cached ~procedure ~cache ~arena r
                      platform ~beta ptg))
            [ 0.05; 0.2; 0.2000001; 0.5; 0.5; 1.0 ])
        [ Allocation.Scrap; Allocation.Scrap_max ])

let qcheck_selfish_dominates_constrained_alone =
  QCheck.Test.make
    ~name:"alone, a selfish allocation is at least as fast as a constrained one"
    ~count:25
    QCheck.(int_range 0 1000)
    (fun seed ->
      let platform = Grid5000.nancy () in
      let r = Reference_cluster.of_platform platform in
      let ptg = random_ptg seed in
      let makespan beta =
        let a = Allocation.allocate r platform ~beta ptg in
        let scheds = List_mapper.run platform r [ (ptg, a.Allocation.procs) ] in
        (List.hd scheds).Schedule.makespan
      in
      (* Communication effects can make bigger allocations slightly
         slower; allow a modest margin. *)
      makespan 1.0 <= makespan 0.15 *. 1.15 +. 1e-6)

let qcheck_strategy_ps_ratios =
  QCheck.Test.make
    ~name:"PS betas are proportional to the gamma characteristic" ~count:40
    QCheck.(pair (int_range 0 500) (oneofl [ Strategy.Cp; Strategy.Width; Strategy.Work ]))
    (fun (seed, metric) ->
      let ptgs = List.init 4 (fun i -> random_ptg ((seed * 4) + i)) in
      let betas = Strategy.betas (Strategy.Proportional metric) ~ref_speed:3. ptgs in
      let gammas =
        Array.of_list (List.map (Strategy.gamma metric ~ref_speed:3.) ptgs)
      in
      let ok = ref true in
      for i = 0 to 3 do
        for j = 0 to 3 do
          if gammas.(j) > 0. && betas.(j) > 0. then begin
            let lhs = betas.(i) /. betas.(j) and rhs = gammas.(i) /. gammas.(j) in
            if Float.abs (lhs -. rhs) > 1e-6 *. Float.max 1. rhs then ok := false
          end
        done
      done;
      !ok)

let qcheck_replay_matches_estimate_without_comm =
  QCheck.Test.make
    ~name:"replay reproduces the mapper exactly when edges carry no data"
    ~count:20
    QCheck.(int_range 0 500)
    (fun seed ->
      (* Chains with zero-byte edges: the simulation has no flows, so the
         timing must match the plan to the epsilon. *)
      let platform = Grid5000.lille () in
      let r = Reference_cluster.of_platform platform in
      let rng = Prng.create ~seed in
      let mk id =
        let n = 2 + Prng.int rng 5 in
        let tasks =
          Array.init n (fun _ ->
              Task.make
                ~data:(Prng.uniform rng ~lo:1e8 ~hi:2e9)
                ~complexity:(Stencil 1.)
                ~alpha:(Prng.uniform rng ~lo:0. ~hi:0.25))
        in
        let edges = List.init (n - 1) (fun i -> (i, i + 1, 0.)) in
        Mcs_ptg.Builder.build ~id ~name:"chain" ~tasks ~edges
      in
      let ptgs = List.init 3 mk in
      let apps =
        List.map
          (fun ptg ->
            let a = Allocation.allocate r platform ~beta:0.33 ptg in
            (ptg, a.Allocation.procs))
          ptgs
      in
      let schedules = List_mapper.run platform r apps in
      let sim = Mcs_sim.Replay.run platform schedules in
      sim.Mcs_sim.Replay.flows_created = 0
      && List.for_all2
           (fun sched m ->
             Float.abs (sched.Schedule.makespan -. m) < 1e-6)
           schedules
           (Array.to_list sim.Mcs_sim.Replay.makespans))

let qcheck_backfill_schedules_valid =
  QCheck.Test.make ~name:"backfill mapping produces valid schedules"
    ~count:15
    QCheck.(pair (int_range 0 500) (int_range 0 3))
    (fun (seed, platform_idx) ->
      let platform = List.nth (Grid5000.all ()) platform_idx in
      let ptgs = List.init 3 (fun i -> random_ptg ((seed * 3) + i)) in
      let config =
        {
          Pipeline.default_config with
          mapper =
            { List_mapper.ordering = List_mapper.Global_backfill;
              packing = false };
        }
      in
      let schedules =
        Pipeline.schedule_concurrent ~config ~strategy:Strategy.Equal_share
          platform ptgs
      in
      not Mcs_check.(Diagnostic.has_errors (Check.analyze platform schedules)))

let suite =
  [
    ( "properties",
      [
        QCheck_alcotest.to_alcotest qcheck_makespan_above_lower_bound;
        QCheck_alcotest.to_alcotest qcheck_allocation_beta_monotone;
        QCheck_alcotest.to_alcotest qcheck_allocator_amdahl_matches_task;
        QCheck_alcotest.to_alcotest qcheck_selfish_dominates_constrained_alone;
        QCheck_alcotest.to_alcotest qcheck_strategy_ps_ratios;
        QCheck_alcotest.to_alcotest qcheck_replay_matches_estimate_without_comm;
        QCheck_alcotest.to_alcotest qcheck_backfill_schedules_valid;
      ] );
  ]
