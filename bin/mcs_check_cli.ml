(* Trace linter: parse schedule exports (CSV or JSON) back and run the
   invariant analyzer over them. Exit status: 0 when every file is
   clean, 1 when any rule is violated, 2 on unreadable/unparsable input
   or bad usage — so CI can gate on committed traces. *)

open Cmdliner
module Trace = Mcs_sched.Trace
module Check = Mcs_check.Check
module Diagnostic = Mcs_check.Diagnostic
module Rule = Mcs_check.Rule

let print_rules () =
  print_endline "rule registry (see DESIGN.md for the paper mapping):";
  List.iter
    (fun r ->
      Printf.printf "  %-8s %-22s %s\n           %s\n" (Rule.code r)
        (Rule.id r) (Rule.describe r) (Rule.paper_ref r))
    Rule.all

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> Ok contents
  | exception Sys_error msg -> Error msg

let parse path contents =
  if Filename.check_suffix path ".json" then Trace.of_json contents
  else if Filename.check_suffix path ".csv" then Trace.of_csv contents
  else
    (* Unknown extension: try JSON first (self-describing), then CSV. *)
    match Trace.of_json contents with
    | Ok doc -> Ok doc
    | Error json_err -> (
      match Trace.of_csv contents with
      | Ok doc -> Ok doc
      | Error csv_err ->
        Error
          (Printf.sprintf "not a trace (as JSON: %s; as CSV: %s)" json_err
             csv_err))

let run rules site strict files =
  if rules then begin
    print_rules ();
    exit 0
  end;
  let platform =
    Option.map (fun name -> Cli.ok (Mcs_platform.Grid5000.by_name name)) site
  in
  if files = [] then
    Cli.die "no trace files given (try --rules for the rule list)";
  let errors = ref 0 and warnings = ref 0 in
  List.iter
    (fun path ->
      let contents = Cli.ok (read_file path) in
      let doc =
        match parse path contents with
        | Ok doc -> doc
        | Error msg -> Cli.die (path ^ ": " ^ msg)
      in
      let diags = Check.lint_trace ?platform doc in
      List.iter
        (fun d -> Printf.printf "%s: %s\n" path (Diagnostic.to_string d))
        (Diagnostic.sort diags);
      List.iter
        (fun (d : Diagnostic.t) ->
          match d.Diagnostic.severity with
          | Diagnostic.Error -> incr errors
          | Diagnostic.Warning -> incr warnings
          | Diagnostic.Info -> ())
        diags;
      Printf.printf "%s: %s\n" path (Diagnostic.summary diags))
    files;
  if !errors > 0 || (strict && !warnings > 0) then exit 1

let rules =
  Arg.(value & flag
       & info [ "rules" ] ~doc:"print the rule registry and exit")

let site =
  Arg.(value & opt (some string) None
       & info [ "site" ]
           ~doc:
             ("Grid'5000 platform the trace was scheduled on ("
             ^ String.concat ", " Mcs_platform.Grid5000.names
             ^ "); enables the cluster-membership, redistribution and \
                packing rules"))

let strict =
  Arg.(value & flag
       & info [ "strict" ] ~doc:"treat warnings as errors")

let files =
  Arg.(value & pos_all string [] & info [] ~docv:"FILE"
       ~doc:"trace files exported by mcs_sched/mcs_online (.csv or .json)")

let cmd =
  let doc = "lint exported schedule traces against the paper's invariants" in
  Cmd.v
    (Cmd.info "mcs_check" ~doc)
    Term.(const run $ rules $ site $ strict $ files)

let () = exit (Cmd.eval cmd)
