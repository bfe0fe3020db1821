(* Shared exit path of the CLI executables: a bad argument prints one
   message to stderr and exits 2, before any output. *)

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
