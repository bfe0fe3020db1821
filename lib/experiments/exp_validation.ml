module P = Mcs_platform.Platform
module Prng = Mcs_prng.Prng
module Pipeline = Mcs_sched.Pipeline
module Schedule = Mcs_sched.Schedule
module Strategy = Mcs_sched.Strategy
module Table = Mcs_util.Table

type stats = {
  family : Workload.family;
  platform : string;
  runs : int;
  mean_rel_error : float;
  max_rel_error : float;
}

let families =
  [ Workload.Random_mixed_scenarios; Workload.Fft_ptgs;
    Workload.Strassen_ptgs ]

let count = 6
let seed = 31

let compute ?runs () =
  let runs = Sweep.resolve_runs runs in
  List.concat_map
    (fun family ->
      Mcs_util.Parmap.map
        (fun (pi, platform) ->
          let errors = ref [] in
          for run = 0 to runs - 1 do
            let rng =
              Prng.create ~seed:((seed * 31337) + (pi * 997) + run)
            in
            let ptgs = Workload.draw rng family ~count in
            let schedules =
              Pipeline.schedule_concurrent ~strategy:Strategy.Equal_share
                platform ptgs
            in
            let sim = Mcs_sim.Replay.run platform schedules in
            List.iteri
              (fun i sched ->
                let est = sched.Schedule.makespan in
                let simulated = sim.Mcs_sim.Replay.makespans.(i) in
                if est > 0. then
                  errors := Float.abs (simulated -. est) /. est :: !errors)
              schedules
          done;
          let arr = Array.of_list !errors in
          {
            family;
            platform = P.name platform;
            runs;
            mean_rel_error = Mcs_util.Floatx.mean arr;
            max_rel_error =
              (if Array.length arr = 0 then 0.
               else Mcs_util.Floatx.maximum arr);
          })
        (List.mapi (fun pi p -> (pi, p)) (Mcs_platform.Grid5000.all ())))
    families

let table ?runs () =
  let stats = compute ?runs () in
  let t =
    Table.create
      ~title:
        "Validation — estimated vs simulated makespans (ES, 6 concurrent \
         PTGs)"
      ~header:
        [ "family"; "platform"; "mean |sim-est|/est"; "max |sim-est|/est" ]
  in
  List.iter
    (fun s ->
      Table.add_row t
        [
          Workload.family_name s.family;
          s.platform;
          Printf.sprintf "%.2f%%" (100. *. s.mean_rel_error);
          Printf.sprintf "%.2f%%" (100. *. s.max_rel_error);
        ])
    stats;
  t
