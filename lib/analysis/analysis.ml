(* Driver: run every rule family over a set of units and merge the
   findings into one deterministic report. The LOCK002 graph is global
   — edges from all units feed one cycle detection, so an A->B in one
   module and a B->A in another still form a reported cycle. *)

let run units =
  let findings = ref [] and edges = ref [] in
  List.iter
    (fun u ->
      let lock_findings, lock_edges = Lockset.analyze u in
      findings :=
        Atom.analyze u @ Escape.analyze u @ lock_findings @ !findings;
      edges := lock_edges @ !edges)
    units;
  Finding.sort (Lockset.cycles !edges @ !findings)

type report = {
  findings : Finding.t list;  (** sorted; waived included *)
  units : int;
  errors : (string * string) list;  (** unreadable/unparsable inputs *)
}

let clean report = Finding.active report.findings = []

let over_paths paths =
  let units = ref [] and errors = ref [] in
  List.iter
    (fun p ->
      match Source.load p with
      | Ok u -> units := u :: !units
      | Error msg -> errors := (p, msg) :: !errors)
    paths;
  let units = List.rev !units in
  { findings = run units; units = List.length units; errors = List.rev !errors }
