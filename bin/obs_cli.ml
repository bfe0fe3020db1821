(* Shared --profile / --profile-format plumbing for the CLI
   executables: enable the recorder around the command body, then write
   the requested export. *)

open Cmdliner
module Obs = Mcs_obs.Obs
module Export = Mcs_obs.Export

let profile =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "record phase spans and counters while running and write the \
           profile to $(docv) ($(b,-) for stdout)")

let profile_format =
  Arg.(
    value
    & opt (enum Export.format_names) Export.Chrome
    & info [ "profile-format" ] ~docv:"FORMAT"
        ~doc:
          "profile output format: $(b,chrome) (a chrome://tracing / \
           Perfetto trace), $(b,jsonl) (one JSON object per span and \
           counter) or $(b,table) (self-time summary)")

(* [scoped ~profile ~format f] runs [f ()]; with [~profile:(Some path)]
   the recorder captures the whole run and the export is written even
   when [f] raises. [exit] inside [f] bypasses the export — argument
   errors happen before any span of interest. *)
let scoped ~profile ~format f =
  match profile with
  | None -> f ()
  | Some path ->
    Obs.enable ();
    let finish () =
      Obs.disable ();
      Export.write format path;
      if path <> "-" then Printf.eprintf "wrote profile %s\n" path
    in
    (match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e)

(* The two flags as one wrapper: [profiled f] runs [f] under [scoped]. *)
let profiled : ((unit -> unit) -> unit) Term.t =
  Term.(
    const (fun profile format f -> scoped ~profile ~format f)
    $ profile $ profile_format)
