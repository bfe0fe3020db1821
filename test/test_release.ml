(* Staggered submission times: the release-date extension of the mapper,
   the replay and the runner (the paper's Section 8 future work). *)

module Platform = Mcs_platform.Platform
module Grid5000 = Mcs_platform.Grid5000
module Prng = Mcs_prng.Prng
open Mcs_sched

let check_float = Alcotest.(check (float 1e-6))

let random_ptgs n seed =
  let rng = Prng.create ~seed in
  List.init n (fun id ->
      Mcs_ptg.Random_gen.generate ~id rng Mcs_ptg.Random_gen.default)

let first_start sched =
  Array.fold_left
    (fun acc pl ->
      if Array.length pl.Schedule.procs > 0 then
        Float.min acc pl.Schedule.start
      else acc)
    Float.infinity sched.Schedule.placements

let test_mapper_respects_release () =
  let platform = Grid5000.lille () in
  let ptgs = random_ptgs 3 4 in
  let release = [| 0.; 50.; 120. |] in
  let schedules =
    Pipeline.schedule_concurrent ~release ~strategy:Strategy.Equal_share
      platform ptgs
  in
  List.iteri
    (fun i sched ->
      Alcotest.(check bool)
        (Printf.sprintf "app %d starts after release" i)
        true
        (first_start sched >= release.(i) -. 1e-9);
      (* The virtual entry too. *)
      Alcotest.(check bool) "entry node floored" true
        ((Schedule.placement sched (Mcs_ptg.Ptg.entry sched.Schedule.ptg))
           .Schedule.start
        >= release.(i) -. 1e-9))
    schedules;
  Mcs_check.Check.(fail_on_error (analyze ~release platform schedules))

let test_mapper_release_validation () =
  let platform = Grid5000.lille () in
  let ptgs = random_ptgs 2 5 in
  let raises release =
    try
      ignore
        (Pipeline.schedule_concurrent ~release ~strategy:Strategy.Selfish
           platform ptgs);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "wrong length" true (raises [| 0. |]);
  Alcotest.(check bool) "negative" true (raises [| 0.; -1. |])

let test_replay_respects_release () =
  let platform = Grid5000.rennes () in
  let ptgs = random_ptgs 3 6 in
  let release = [| 0.; 75.; 200. |] in
  let schedules =
    Pipeline.schedule_concurrent ~release ~strategy:Strategy.Equal_share
      platform ptgs
  in
  let sim = Mcs_sim.Replay.run ~release platform schedules in
  Array.iteri
    (fun i times ->
      Array.iter
        (fun t ->
          if not (Float.is_nan t) then
            Alcotest.(check bool)
              (Printf.sprintf "app %d sim start after release" i)
              true
              (t >= release.(i) -. 1e-9))
        times)
    sim.Mcs_sim.Replay.start_times

let test_zero_release_matches_default () =
  let platform = Grid5000.nancy () in
  let ptgs = random_ptgs 2 7 in
  let with_zero =
    Pipeline.schedule_concurrent ~release:[| 0.; 0. |]
      ~strategy:Strategy.Equal_share platform ptgs
  in
  let without =
    Pipeline.schedule_concurrent ~strategy:Strategy.Equal_share platform ptgs
  in
  List.iter2
    (fun a b -> check_float "same makespans" a.Schedule.makespan b.Schedule.makespan)
    with_zero without

let test_runner_response_time () =
  let platform = Grid5000.lille () in
  let ptgs = random_ptgs 2 8 in
  let release = [| 0.; 1000. |] in
  (* With a huge gap, the second application runs essentially alone:
     slowdown near 1. *)
  match
    Mcs_experiments.Runner.evaluate ~release platform ptgs
      [ Strategy.Selfish ]
  with
  | [ r ] ->
    Alcotest.(check bool) "late app unperturbed" true
      (r.Mcs_experiments.Runner.slowdowns.(1) > 0.9)
  | _ -> Alcotest.fail "one result expected"

let test_late_release_serialises () =
  (* One-processor platform, two single-task apps; the second released
     after the first finishes. *)
  let platform =
    Platform.make ~name:"uni"
      [ { Platform.cluster_name = "c"; procs = 1; gflops = 1.; switch = 0 } ]
  in
  let mk id =
    Mcs_ptg.Builder.build ~id ~name:"solo"
      ~tasks:
        [|
          Mcs_taskmodel.Task.make ~data:(10. *. 1e9)
            ~complexity:(Stencil 1.) ~alpha:1.;
        |]
      ~edges:[]
  in
  let schedules =
    Pipeline.schedule_concurrent ~release:[| 0.; 25. |]
      ~strategy:Strategy.Selfish platform [ mk 0; mk 1 ]
  in
  check_float "first at 0" 0. (first_start (List.nth schedules 0));
  check_float "second at its release" 25. (first_start (List.nth schedules 1));
  check_float "second done at 35" 35. (List.nth schedules 1).Schedule.makespan

let suite =
  [
    ( "sched.release",
      [
        Alcotest.test_case "mapper floors starts" `Quick
          test_mapper_respects_release;
        Alcotest.test_case "validation" `Quick test_mapper_release_validation;
        Alcotest.test_case "replay floors starts" `Quick
          test_replay_respects_release;
        Alcotest.test_case "zero release is default" `Quick
          test_zero_release_matches_default;
        Alcotest.test_case "runner response time" `Quick
          test_runner_response_time;
        Alcotest.test_case "serialised by release" `Quick
          test_late_release_serialises;
      ] );
  ]
