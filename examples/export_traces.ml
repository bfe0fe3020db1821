(* Trace export: schedule a small scenario, run the invariant analyzer
   over it, and write the result both as CSV (one row per placement,
   ready for pandas or a spreadsheet Gantt) and as JSON carrying the
   beta/allocation metadata that `mcs_check` lints against, plus the
   DOT of one application.

   Run with: dune exec examples/export_traces.exe [output-dir]

   The committed copies under examples/traces/ are produced by
   `dune exec examples/export_traces.exe examples/traces` and are
   linted in CI with `mcs_check --site lille`. *)

module Strategy = Mcs_sched.Strategy
module Pipeline = Mcs_sched.Pipeline
module Allocation = Mcs_sched.Allocation

let write path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  Printf.printf "wrote %s (%d bytes)\n" path (String.length contents)

let () =
  let dir =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else Filename.get_temp_dir_name ()
  in
  let platform = Mcs_platform.Grid5000.lille () in
  let rng = Mcs_prng.Prng.create ~seed:99 in
  let ptgs =
    [
      Mcs_ptg.Random_gen.generate ~id:0 rng Mcs_ptg.Random_gen.default;
      Mcs_ptg.Fft.generate ~id:1 ~points:8 rng;
      Mcs_ptg.Strassen.generate ~id:2 rng;
    ]
  in
  let strategy = Strategy.Weighted (Strategy.Width, 0.5) in
  let prepared = Pipeline.prepare ~strategy platform ptgs in
  let schedules = Pipeline.schedule_concurrent ~strategy platform ptgs in
  (match
     Mcs_check.Check.analyze_prepared ~strategy prepared platform schedules
   with
  | [] -> print_endline "invariant analyzer: clean"
  | diags ->
      List.iter
        (fun d -> prerr_endline (Mcs_check.Diagnostic.to_string d))
        diags;
      failwith "invariant analyzer found violations");
  let alloc =
    Array.map
      (fun (r : Allocation.result) -> r.Allocation.procs)
      prepared.Pipeline.allocations
  in
  write (Filename.concat dir "mcs_schedule.csv")
    (Mcs_sched.Trace.to_csv schedules);
  write (Filename.concat dir "mcs_schedule.json")
    (Mcs_sched.Trace.to_json ~betas:prepared.Pipeline.betas ~alloc schedules);
  write (Filename.concat dir "mcs_fft.dot")
    (Mcs_ptg.Ptg.to_dot (List.nth ptgs 1));
  (* A taste of the CSV. *)
  let csv = Mcs_sched.Trace.to_csv schedules in
  let lines = String.split_on_char '\n' csv in
  print_newline ();
  List.iteri (fun i l -> if i < 6 then print_endline l) lines
