(* Analysis units: one per .ml file, parsed from the text on disk. *)

type t = {
  path : string;
  modname : string;
  structure : Parsetree.structure;
}

let modname_of_path path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

let parse_string ~filename contents =
  let lexbuf = Lexing.from_string contents in
  Lexing.set_filename lexbuf filename;
  match Parse.implementation lexbuf with
  | structure ->
    Ok { path = filename; modname = modname_of_path filename; structure }
  | exception Syntaxerr.Error _ -> Error (filename ^ ": syntax error")
  | exception e -> Error (filename ^ ": " ^ Printexc.to_string e)

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | contents -> parse_string ~filename:path contents
  | exception Sys_error msg -> Error msg

(* Path substrings a directory sweep prunes: build trees and the seeded
   fixtures. *)
let excluded p =
  List.exists
    (fun x ->
      let lx = String.length x and lp = String.length p in
      let rec at i = i + lx <= lp && (String.sub p i lx = x || at (i + 1)) in
      at 0)
    [ "_build"; "fixtures" ]

let scan roots =
  let acc = ref [] in
  let rec visit p =
    if not (excluded p) then
      if Sys.is_directory p then (
        match Sys.readdir p with
        | entries ->
          Array.sort compare entries;
          Array.iter (fun e -> visit (Filename.concat p e)) entries
        | exception Sys_error _ -> ())
      else if Filename.check_suffix p ".ml" then acc := p :: !acc
  in
  (* The exclusions prune the recursive sweep only: a root the caller
     named explicitly is always taken — that is how CI lints one seeded
     fixture at a time. *)
  List.iter
    (fun r ->
      if Sys.file_exists r then
        if Sys.is_directory r then visit r
        else if Filename.check_suffix r ".ml" then acc := r :: !acc)
    roots;
  List.sort compare !acc
