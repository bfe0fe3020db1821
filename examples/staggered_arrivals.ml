(* Staggered arrivals: applications are submitted over time (the paper's
   future-work scenario, Section 8). The example builds a morning's worth
   of submissions, schedules them under two strategies with release
   dates, simulates, and prints per-application response times and
   slowdowns.

   Run with: dune exec examples/staggered_arrivals.exe *)

module Ptg = Mcs_ptg.Ptg
module Strategy = Mcs_sched.Strategy
module Runner = Mcs_experiments.Runner
module Table = Mcs_util.Table

let () =
  let platform = Mcs_platform.Grid5000.rennes () in
  let rng = Mcs_prng.Prng.create ~seed:5150 in
  let count = 6 in
  let ptgs =
    List.init count (fun id ->
        Mcs_ptg.Random_gen.generate ~id rng
          { Mcs_ptg.Random_gen.default with tasks = 10 + (10 * (id mod 3)) })
  in
  (* Poisson arrivals with a 40-second mean inter-arrival. *)
  let release = Mcs_experiments.Workload.releases rng ~count ~mean:40. in

  Printf.printf "Submissions on %s:\n"
    (Mcs_platform.Platform.name platform);
  List.iteri
    (fun i p ->
      Format.printf "  t=%6.1f s  %a@." release.(i) Ptg.pp p)
    ptgs;
  print_newline ();

  let strategies =
    [ Strategy.Selfish; Strategy.Weighted (Strategy.Width, 0.5) ]
  in
  let results = Runner.evaluate ~release platform ptgs strategies in
  let table =
    Table.create
      ~title:"Response time (completion - submission) and slowdown"
      ~header:
        ("application" :: "submitted (s)"
        :: List.concat_map
             (fun r ->
               let n = Strategy.name r.Runner.strategy in
               [ n ^ " resp (s)"; n ^ " slowdown" ])
             results)
  in
  List.iteri
    (fun i ptg ->
      Table.add_row table
        (Printf.sprintf "%s#%d" ptg.Ptg.name ptg.Ptg.id
        :: Printf.sprintf "%.1f" release.(i)
        :: List.concat_map
             (fun r ->
               [
                 Printf.sprintf "%.1f" r.Runner.makespans.(i);
                 Printf.sprintf "%.3f" r.Runner.slowdowns.(i);
               ])
             results))
    ptgs;
  Table.print table;
  List.iter
    (fun r ->
      Printf.printf "%s: unfairness %.3f, last completion %.1f s\n"
        (Strategy.name r.Runner.strategy)
        r.Runner.unfairness
        (* Response times are relative; recover absolute completion. *)
        (Array.fold_left Float.max 0.
           (Array.mapi (fun i m -> m +. release.(i)) r.Runner.makespans)))
    results
