(* The repository benchmark. Without a subcommand it makes one run of
   one workload, as BENCHMARK.json's command is invoked:

     mcs_bench --workload W --seed N --seconds S --trace 0|1

   printing "workload metric value unit" lines and, last, one JSON
   object with the run's verdict and its end-to-end (trace 0) or
   per-layer (trace 1) metrics. The subcommands drive that mode:
   [run] and [trace] over every workload in child processes, [agree]
   compares two [run] result files, [verify] audits every workload with
   the checker on, and [smoke] checks the output against
   BENCHMARK.json. *)

module Jsonx = Mcs_util.Jsonx
module W = Workloads
module M = Measure

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("mcs_bench: " ^ m);
      exit 2)
    fmt

let workload name =
  match W.find name with
  | Some w -> w
  | None ->
    die "unknown workload %S (one of: %s)" name
      (String.concat ", " (List.map (fun w -> w.W.name) W.all))

let full = { W.scale = 1.; check = false; inline = false }

(* ---------- one run: the benchmark command ---------- *)

let result_json (r : M.result) =
  Jsonx.Obj
    [
      ("correct", Jsonx.Bool r.M.correct);
      ("attempted", Jsonx.Num (float_of_int r.M.attempted));
      ("failed", Jsonx.Num (float_of_int r.M.failed));
      ( "metrics",
        Jsonx.Obj
          (List.map
             (fun (m : M.metric) ->
               ( m.M.name,
                 Jsonx.Obj
                   [
                     ( "value",
                       if Float.is_finite m.M.value then Jsonx.Num m.M.value
                       else Jsonx.Null );
                     ("unit", Jsonx.Str m.M.unit_);
                   ] ))
             r.M.metrics) );
    ]

let measure ~workload:name ~seed ~seconds ~trace =
  let w = workload name in
  let r = M.run w full ~seed ~seconds ~trace in
  let finite =
    List.for_all (fun (m : M.metric) -> Float.is_finite m.M.value) r.M.metrics
  in
  let r = { r with M.correct = r.M.correct && finite } in
  List.iter print_endline r.M.table;
  List.iter
    (fun (m : M.metric) ->
      Printf.printf "%s %s %.6g %s\n" name m.M.name m.M.value m.M.unit_)
    r.M.metrics;
  print_endline (Jsonx.encode (result_json r))

(* ---------- child runs ---------- *)

let child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file -> acc
  in
  let out = lines [] in
  match (Unix.close_process_in ic, out) with
  | Unix.WEXITED 0, last :: rest -> (
    match Jsonx.parse last with
    | Ok json -> (List.rev rest, json)
    | Error e -> die "%s: bad result line: %s" (String.concat " " args) e)
  | _ -> die "%s: the run failed" (String.concat " " args)

let run_args ~seed ~seconds ~trace w =
  [
    "--workload"; w.W.name; "--seed"; string_of_int seed; "--seconds";
    Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0");
  ]

let metric_values json =
  match Jsonx.member "metrics" json with
  | Some (Jsonx.Obj fields) ->
    List.filter_map
      (fun (name, m) ->
        match (Jsonx.get_float "value" m, Jsonx.get_string "unit" m) with
        | Some v, Some u -> Some (name, v, u)
        | _ -> None)
      fields
  | _ -> []

let flag key json = Jsonx.member key json = Some (Jsonx.Bool true)
let int_field key json = Option.value (Jsonx.get_int key json) ~default:0

let write_json path doc =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Jsonx.encode doc);
      output_char oc '\n')

(* Prints the median of every metric of one workload's runs and
   returns their summary. *)
let summarise workload runs =
  let correct = List.for_all (flag "correct") runs in
  let total key = List.fold_left (fun n r -> n + int_field key r) 0 runs in
  let metrics =
    List.map
      (fun (name, _, unit_) ->
        let values =
          List.filter_map
            (fun r ->
              List.find_map
                (fun (n, v, _) -> if n = name then Some v else None)
                (metric_values r))
            runs
        in
        let median = M.median values in
        let fold f = List.fold_left f (List.hd values) values in
        Printf.printf "%s %s %.6g %s\n" workload name median unit_;
        ( name,
          Jsonx.Obj
            [
              ("unit", Jsonx.Str unit_);
              ("median", Jsonx.Num median);
              ("min", Jsonx.Num (fold Float.min));
              ("max", Jsonx.Num (fold Float.max));
              ("n", Jsonx.Num (float_of_int (List.length values)));
            ] ))
      (metric_values (List.hd runs))
  in
  Jsonx.Obj
    [
      ("runs", Jsonx.Num (float_of_int (List.length runs)));
      ("correct", Jsonx.Bool correct);
      ("attempted", Jsonx.Num (float_of_int (total "attempted")));
      ("failed", Jsonx.Num (float_of_int (total "failed")));
      ("metrics", Jsonx.Obj metrics);
    ]

let reps = 3

(* Interleaved repetitions, each in a fresh process: w1 w2 w3 w4 w1 … *)
let run_all ~seed ~seconds ~json =
  let runs = Hashtbl.create 8 in
  for rep = 1 to reps do
    List.iter
      (fun w ->
        Printf.eprintf "[%d/%d] %s\n%!" rep reps w.W.name;
        let _, r = child (run_args ~seed ~seconds ~trace:false w) in
        Hashtbl.add runs w.W.name r)
      W.all
  done;
  let summaries =
    List.map
      (fun w ->
        (w.W.name, summarise w.W.name (Hashtbl.find_all runs w.W.name)))
      W.all
  in
  Option.iter
    (fun path ->
      write_json path
        (Jsonx.Obj
           [
             ("seed", Jsonx.Num (float_of_int seed));
             ("seconds", Jsonx.Num seconds);
             ("reps", Jsonx.Num (float_of_int reps));
             ( "nproc",
               Jsonx.Num (float_of_int (Domain.recommended_domain_count ())) );
             ("workloads", Jsonx.Obj summaries);
           ]))
    json;
  if
    not
      (List.for_all
         (fun (_, s) -> flag "correct" s && int_field "failed" s = 0)
         summaries)
  then exit 1

let trace_all ~seed ~seconds ~out =
  let results =
    List.map
      (fun w ->
        let lines, r = child (run_args ~seed ~seconds ~trace:true w) in
        List.iter print_endline lines;
        print_newline ();
        (w.W.name, r))
      W.all
  in
  Option.iter
    (fun path ->
      write_json path
        (Jsonx.Obj
           [
             ("seed", Jsonx.Num (float_of_int seed));
             ("workloads", Jsonx.Obj results);
           ]))
    out;
  if not (List.for_all (fun (_, r) -> flag "correct" r) results) then exit 1

(* ---------- BENCHMARK.json ---------- *)

type declared = { d_name : string; d_unit : string; bound : float option }

let load path =
  match Jsonx.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok json -> json
  | Error e -> die "%s: %s" path e
  | exception Sys_error e -> die "%s" e

let declared key spec =
  List.map
    (fun m ->
      match (Jsonx.get_string "name" m, Jsonx.get_string "unit" m) with
      | Some d_name, Some d_unit ->
        { d_name; d_unit; bound = Jsonx.get_float "bound" m }
      | _ -> die "a %s entry lacks a name or a unit" key)
    (Option.value (Jsonx.get_list key spec) ~default:[])

let declared_workloads spec =
  List.filter_map (Jsonx.get_string "name")
    (Option.value (Jsonx.get_list "workloads" spec) ~default:[])

(* ---------- smoke ---------- *)

(* Every workload at 1% scale, both metric sets, against the
   declaration: same workloads, same metric names, same units. *)
let smoke ~spec =
  let spec = load spec in
  let problems = ref [] in
  let problem fmt =
    Printf.ksprintf (fun m -> problems := m :: !problems) fmt
  in
  let names = declared_workloads spec in
  List.iter
    (fun w ->
      if not (List.mem w.W.name names) then
        problem "workload %s is not declared" w.W.name)
    W.all;
  let check name key (r : M.result) =
    if not r.M.correct then problem "%s: incorrect output (%s)" name key;
    if r.M.failed > 0 then problem "%s: %d failed (%s)" name r.M.failed key;
    let decl = declared key spec in
    let reported d =
      List.find_opt (fun (m : M.metric) -> m.M.name = d.d_name) r.M.metrics
    in
    List.iter
      (fun d ->
        match reported d with
        | None -> problem "%s: %s missing" name d.d_name
        | Some m when m.M.unit_ = "" || m.M.unit_ <> d.d_unit ->
          problem "%s: %s has unit %S, declared %S" name d.d_name m.M.unit_
            d.d_unit
        | Some m when not (Float.is_finite m.M.value) ->
          problem "%s: %s is not a number" name d.d_name
        | Some _ -> ())
      decl;
    List.iter
      (fun (m : M.metric) ->
        if not (List.exists (fun d -> d.d_name = m.M.name) decl) then
          problem "%s: %s is not declared in %s" name m.M.name key)
      r.M.metrics
  in
  List.iter
    (fun name ->
      match W.find name with
      | None -> problem "declared workload %s does not exist" name
      | Some w ->
        let o = { full with W.scale = 0.01 } in
        check name "end_to_end" (M.run w o ~seed:1 ~seconds:0. ~trace:false);
        check name "per_layer" (M.run w o ~seed:1 ~seconds:0. ~trace:true))
    names;
  match List.rev !problems with
  | [] ->
    Printf.printf "smoke: %d workloads report every declared metric\n"
      (List.length names)
  | ps ->
    List.iter (fun p -> prerr_endline ("smoke: " ^ p)) ps;
    exit 1

(* ---------- verify ---------- *)

(* At least three units of every workload, a whole input cycle
   offline, at 1/10 scale with the checker on: clean, reproducible, and
   for the service the same on one domain as on several. *)
let verify ~seed =
  let ok = ref true in
  List.iter
    (fun w ->
      let o = { W.scale = 0.1; check = true; inline = false } in
      let bad = ref [] in
      let fault k fmt =
        Printf.ksprintf
          (fun m -> bad := Printf.sprintf "unit %d: %s" k m :: !bad)
          fmt
      in
      let n = max w.W.cycle 3 in
      for k = 0 to n - 1 do
        let a = w.W.run_unit o ~seed k and b = w.W.run_unit o ~seed k in
        if a.W.failed > 0 then fault k "%d failed" a.W.failed;
        if a.W.digest <> b.W.digest then fault k "a rerun differs";
        let inline () = w.W.run_unit { o with W.inline = true } ~seed k in
        if w.W.multi_domain && (inline ()).W.digest <> a.W.digest then
          fault k "one domain differs from several"
      done;
      match List.rev !bad with
      | [] ->
        Printf.printf "verify %s: %d units checker-clean and reproducible\n%!"
          w.W.name n
      | l ->
        ok := false;
        List.iter (Printf.printf "verify %s: %s\n%!" w.W.name) l)
    W.all;
  if not !ok then exit 1

(* ---------- agree ---------- *)

(* Two result files of [run] agree when nothing failed, every declared
   end-to-end median lies within the metric's bound of the other, and
   the deterministic metrics ([Measure.exact]) are equal in both. *)
let agree ~spec a b =
  let e2e = declared "end_to_end" (load spec) in
  let a = load a and b = load b in
  let ok = ref true in
  let entry json name =
    Option.bind (Jsonx.member "workloads" json) (Jsonx.member name)
  in
  List.iter
    (fun w ->
      let name = w.W.name in
      let problems =
        match (entry a name, entry b name) with
        | Some wa, Some wb ->
          let health w tag =
            if flag "correct" w && int_field "failed" w = 0 then []
            else [ tag ^ " has incorrect or failed runs" ]
          in
          let stat w d key =
            Option.bind (Jsonx.member "metrics" w) (fun ms ->
                Option.bind (Jsonx.member d.d_name ms) (Jsonx.get_float key))
          in
          let compare d =
            match (stat wa d "median", stat wb d "median") with
            | Some ma, Some mb ->
              let rel = Float.abs (mb -. ma) /. Float.abs ma in
              let bound = Option.value d.bound ~default:0. in
              if List.mem d.d_name M.exact then
                if ma = mb then None
                else
                  Some (Printf.sprintf "%s %.17g vs %.17g (exact)" d.d_name ma mb)
              else if rel > bound then
                Some
                  (Printf.sprintf "%s %.6g vs %.6g (%.1f%% > %.0f%%)" d.d_name ma
                     mb (100. *. rel) (100. *. bound))
              else None
            | _ -> Some (d.d_name ^ " missing")
          in
          health wa "A" @ health wb "B" @ List.filter_map compare e2e
        | _ -> [ "missing from a result file" ]
      in
      if problems = [] then Printf.printf "%-18s agree\n" name
      else begin
        ok := false;
        Printf.printf "%-18s DISAGREE: %s\n" name (String.concat "; " problems)
      end)
    W.all;
  if not !ok then exit 1

(* ---------- command line ---------- *)

open Cmdliner

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Input seed.")

let seconds =
  Arg.(
    value & opt float 15.
    & info [ "seconds" ] ~docv:"S" ~doc:"Measured length of one run, seconds.")

let spec =
  Arg.(
    value & opt file "BENCHMARK.json"
    & info [ "spec" ] ~docv:"FILE" ~doc:"The benchmark declaration.")

let default =
  let workload =
    Arg.(
      required
      & opt (some string) None
      & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run.")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", false); ("1", true) ]) false
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"1: report the per-layer metrics of a traced pass.")
  in
  Term.(
    const (fun workload seed seconds trace ->
        measure ~workload ~seed ~seconds ~trace)
    $ workload $ seed $ seconds $ trace)

let run_cmd =
  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write medians, minima and maxima here.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run every workload three times, interleaved, in child processes.")
    Term.(
      const (fun seed seconds json -> run_all ~seed ~seconds ~json)
      $ seed $ seconds $ json)

let trace_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the per-layer metrics here.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Trace every workload and print where the time went.")
    Term.(
      const (fun seed seconds out -> trace_all ~seed ~seconds ~out)
      $ seed $ seconds $ out)

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Audit every workload at 1/10 scale with the checker on.")
    Term.(const (fun seed -> verify ~seed) $ seed)

let agree_cmd =
  let file n = Arg.(required & pos n (some file) None & info [] ~docv:"RESULT") in
  Cmd.v
    (Cmd.info "agree"
       ~doc:"Compare two result files of $(b,run) against the bounds.")
    Term.(const (fun spec a b -> agree ~spec a b) $ spec $ file 0 $ file 1)

let smoke_cmd =
  Cmd.v
    (Cmd.info "smoke" ~doc:"Check every declared metric at 1% scale.")
    Term.(const (fun spec -> smoke ~spec) $ spec)

let () =
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "mcs_bench" ~doc:"Benchmark of the mcs schedulers.")
          [ run_cmd; trace_cmd; verify_cmd; agree_cmd; smoke_cmd ]))
