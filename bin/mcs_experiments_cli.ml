(* Experiment CLI: regenerate any table/figure of the paper (and the
   repo's extra experiments) by id or alias, from the registry in
   Mcs_experiments.Artefact. See DESIGN.md section 5 for the index. *)

open Cmdliner
module Artefact = Mcs_experiments.Artefact

let run_experiment id runs profile profile_format =
  Obs_cli.scoped ~profile ~format:profile_format @@ fun () ->
  let runs = if runs <= 0 then None else Some runs in
  let id = String.lowercase_ascii id in
  match Artefact.find id with
  | Some a -> List.iter Mcs_util.Table.print (a.Artefact.tables ?runs ())
  | None ->
    Cli.die
      (Printf.sprintf "unknown experiment %s (%s)" id
         (String.concat " " (List.map (fun a -> a.Artefact.id) Artefact.all)))

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
                 env or the paper's 25")

let cmd =
  let doc = "regenerate the paper's tables and figures" in
  Cmd.v
    (Cmd.info "mcs_experiments" ~doc)
    Term.(
      const run_experiment $ id $ runs $ Obs_cli.profile
      $ Obs_cli.profile_format)

let () = exit (Cmd.eval cmd)
