(* Shared exit path of the CLI executables: a bad argument prints one
   message to stderr and exits 2, before any output. *)

open Cmdliner

let die msg =
  prerr_endline msg;
  exit 2

(* The value of a parse result, or exit 2 with its error. *)
let ok = function Ok x -> x | Error m -> die m

(* [checked f] is [f ()], or exit 2 with the message of the
   [Invalid_argument] it raised. *)
let checked f = try f () with Invalid_argument m -> die m

(* Exit 1 with the first error when the invariant analyzer rejects the
   schedules a scheduling CLI produced: that is a bug, not bad input. *)
let validated ?release platform schedules =
  match
    Mcs_check.Diagnostic.errors
      (Mcs_check.Check.analyze ?release platform schedules)
  with
  | [] -> ()
  | d :: _ ->
    prerr_endline
      ("internal error, invalid schedule: " ^ Mcs_check.Diagnostic.to_string d);
    exit 1

let exits =
  let info = Cmd.Exit.info in
  [
    info Cmd.Exit.ok ~doc:"on success.";
    info 1 ~doc:"when a checked schedule or a linted file violates a rule.";
    info 2
      ~doc:
        "on bad input: a command-line parse error or a rejected value, with \
         nothing on stdout.";
    info Cmd.Exit.internal_error ~doc:"on an unexpected internal error.";
  ]

(* Run the command [name] and exit. A command-line parse error exits 2
   like every rejected value above; cmdliner prints it and the usage to
   stderr. *)
let eval name ~doc term =
  exit
    (match Cmd.eval_value (Cmd.v (Cmd.info name ~doc ~exits) term) with
    | Ok (`Ok () | `Help | `Version) -> Cmd.Exit.ok
    | Error (`Parse | `Term) -> 2
    | Error `Exn -> Cmd.Exit.internal_error)
