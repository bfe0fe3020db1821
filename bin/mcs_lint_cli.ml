(* Concurrency linter: run the lib/analysis rule families (LOCK /
   ESCAPE / ATOM) over OCaml sources, parsed from the text on disk. Exit
   status mirrors mcs_check_cli: 0 clean, 1 non-waived findings, 2 on
   unreadable input or bad usage, so CI can gate on the repo itself. *)

open Cmdliner
module Analysis = Mcs_analysis.Analysis
module Finding = Mcs_analysis.Finding
module Rule = Mcs_analysis.Rule
module Source = Mcs_analysis.Source

let print_rules () =
  print_endline "rule registry (see DESIGN.md section 13):";
  List.iter
    (fun r ->
      Printf.printf "  %-10s %-26s %s\n             %s\n" (Rule.code r)
        (Rule.id r) (Rule.describe r) (Rule.rationale r))
    Rule.all

(* The default sweep when --repo is given: every library, executable
   and test in the tree. Fixtures stay excluded by Source.scan — they
   are seeded violations, linted one at a time by CI. *)
let repo_roots = [ "lib"; "bin"; "test"; "bench"; "examples" ]

let run rules repo show_waived paths =
  if rules then begin
    print_rules ();
    exit 0
  end;
  let roots = if repo then repo_roots @ paths else paths in
  if roots = [] then begin
    prerr_endline
      "no files or directories given (try --repo, or --rules for the \
       rule list)";
    exit 2
  end;
  let files = Source.scan roots in
  if files = [] then begin
    prerr_endline "no .ml files found under the given paths";
    exit 2
  end;
  let report = Analysis.over_paths files in
  List.iter
    (fun (path, msg) -> Printf.eprintf "%s: %s\n" path msg)
    report.Analysis.errors;
  let shown =
    if show_waived then report.Analysis.findings
    else Finding.active report.Analysis.findings
  in
  List.iter (fun f -> print_endline (Finding.to_string f)) shown;
  Printf.printf "%d unit%s: %s\n" report.Analysis.units
    (if report.Analysis.units = 1 then "" else "s")
    (Finding.summary report.Analysis.findings);
  if report.Analysis.errors <> [] then exit 2;
  if not (Analysis.clean report) then exit 1

let rules =
  Arg.(value & flag
       & info [ "rules" ] ~doc:"print the rule registry and exit")

let repo =
  Arg.(value & flag
       & info [ "repo" ]
           ~doc:
             "lint the whole repository: lib, bin, test, bench and \
              examples (seeded fixtures stay excluded)")

let show_waived =
  Arg.(value & flag
       & info [ "show-waived" ]
           ~doc:
             "also print findings suppressed by in-source waivers \
              ([@domain_local], [@atomic_ok], [@no_lock_needed])")

let paths =
  Arg.(value & pos_all string [] & info [] ~docv:"PATH"
       ~doc:".ml files or directories to lint (directories recurse)")

let () =
  Cli.eval "mcs_lint"
    ~doc:"lint the serve stack for lock, domain-escape and atomic races"
    Term.(const run $ rules $ repo $ show_waived $ paths)
