(* Experiment CLI: regenerate any table/figure of the paper (and the
   repo's extra experiments) by id or alias, from the registry in
   Mcs_experiments.Artefact. See DESIGN.md section 5 for the index. *)

open Cmdliner
module Artefact = Mcs_experiments.Artefact

let run_experiment id runs profiled =
  let id = String.lowercase_ascii id in
  let a =
    match Artefact.find id with
    | Some a -> a
    | None ->
      Cli.die
        (Printf.sprintf "unknown experiment %s (%s)" id
           (String.concat " "
              (List.map (fun a -> a.Artefact.id) Artefact.all)))
  in
  let runs =
    Cli.checked (fun () ->
        Mcs_experiments.Sweep.resolve_runs
          (if runs = 0 then None else Some runs))
  in
  profiled @@ fun () ->
  List.iter Mcs_util.Table.print (a.Artefact.tables ~runs ())

let id =
  Arg.(value & pos 0 string "table1"
       & info [] ~docv:"EXPERIMENT"
           ~doc:
             (String.concat ", "
                (List.map
                   (fun a ->
                     Printf.sprintf "%s (%s)" a.Artefact.id
                       (String.concat ", " a.Artefact.aliases))
                   Artefact.all)))

let runs =
  Arg.(value & opt int 0
       & info [ "runs" ]
           ~doc:"combinations per (count, platform) point; 0 = MCS_RUNS \
                 env or the paper's 25; a negative value, or an MCS_RUNS \
                 that is not a positive integer, exits 2")

let () =
  Cli.eval "mcs_experiments" ~doc:"regenerate the paper's tables and figures"
    Term.(const run_experiment $ id $ runs $ Obs_cli.profiled)
