type severity = Error | Warning | Info

type t = {
  rule : Rule.t;
  severity : severity;
  app : int option;
  node : int option;
  proc : int option;
  window : (float * float) option;
  message : string;
}

let make severity ?app ?node ?proc ?window rule fmt =
  Printf.ksprintf
    (fun message -> { rule; severity; app; node; proc; window; message })
    fmt

let error ?app ?node ?proc ?window rule fmt =
  make Error ?app ?node ?proc ?window rule fmt

let warning ?app ?node ?proc ?window rule fmt =
  make Warning ?app ?node ?proc ?window rule fmt

let info ?app ?node ?proc ?window rule fmt =
  make Info ?app ?node ?proc ?window rule fmt

let severity_name = function
  | Error -> "ERROR"
  | Warning -> "WARNING"
  | Info -> "INFO"

let location t =
  let parts =
    List.filter_map
      (fun x -> x)
      [
        Option.map (Printf.sprintf "app %d") t.app;
        Option.map (Printf.sprintf "node %d") t.node;
        Option.map (Printf.sprintf "proc %d") t.proc;
        Option.map (fun (a, b) -> Printf.sprintf "%g..%g" a b) t.window;
      ]
  in
  match parts with
  | [] -> ""
  | parts -> Printf.sprintf " [%s]" (String.concat ", " parts)

let to_string t =
  Printf.sprintf "%s %s %s%s: %s" (severity_name t.severity)
    (Rule.code t.rule) (Rule.id t.rule) (location t) t.message

let pp fmt t = Format.pp_print_string fmt (to_string t)

let has_errors diags = List.exists (fun d -> d.severity = Error) diags
let errors diags = List.filter (fun d -> d.severity = Error) diags

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2

(* Total order, not just severity classes: two runs that find the same
   set of diagnostics print them in the same sequence whatever
   traversal order produced them, so CI output is diffable. *)
let compare_t a b =
  compare
    ( severity_rank a.severity,
      Rule.code a.rule,
      a.app,
      a.node,
      a.proc,
      a.window,
      a.message )
    ( severity_rank b.severity,
      Rule.code b.rule,
      b.app,
      b.node,
      b.proc,
      b.window,
      b.message )

let sort diags = List.stable_sort compare_t diags
let compare = compare_t

let summary diags =
  let count sev = List.length (List.filter (fun d -> d.severity = sev) diags) in
  let plural n word =
    Printf.sprintf "%d %s%s" n word (if n = 1 then "" else "s")
  in
  match (count Error, count Warning, count Info) with
  | 0, 0, 0 -> "clean"
  | e, w, i ->
    String.concat ", "
      (List.filter_map
         (fun x -> x)
         [
           (if e > 0 then Some (plural e "error") else None);
           (if w > 0 then Some (plural w "warning") else None);
           (if i > 0 then Some (plural i "info") else None);
         ])
