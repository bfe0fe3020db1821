module Ptg = Mcs_ptg.Ptg
module Schedule = Mcs_sched.Schedule
module Strategy = Mcs_sched.Strategy
module Allocation = Mcs_sched.Allocation
module Pipeline = Mcs_sched.Pipeline
module Reference_cluster = Mcs_sched.Reference_cluster
module Obs = Mcs_obs.Obs

let c_analyses = Obs.counter "check.analyses"
let c_rules = Obs.counter "check.rules"
let c_diagnostics = Obs.counter "check.diagnostics"

exception Violation of Diagnostic.t list

let () =
  Printexc.register_printer (function
    | Violation errors ->
      Some (String.concat "\n" (List.map Diagnostic.to_string errors))
    | _ -> None)

let check_length name count = function
  | None -> ()
  | Some arr ->
    if Array.length arr <> count then
      invalid_arg
        (Printf.sprintf "Check.analyze: %s has %d entries for %d schedules"
           name (Array.length arr) count)

let analyze ?strategy ?(procedure = Allocation.Scrap_max) ?betas ?allocations
    ?release ?pinned platform schedules =
  let count = List.length schedules in
  check_length "betas" count betas;
  check_length "allocations" count allocations;
  check_length "release" count release;
  check_length "pinned" count pinned;
  Obs.with_span "check.analyze" @@ fun () ->
  Obs.incr c_analyses;
  (* One analysis pass evaluates the whole rule registry. *)
  Obs.incr ~by:(List.length Rule.all) c_rules;
  let diags = ref [] in
  let emit d =
    Obs.incr c_diagnostics;
    diags := d :: !diags
  in
  let ref_cluster = Reference_cluster.of_platform platform in
  let max_allocation = Reference_cluster.max_allocation ref_cluster platform in
  List.iteri
    (fun i s ->
      let ptg = s.Schedule.ptg in
      Dag_check.check_ptg ~emit ~app:i ptg;
      Option.iter
        (fun betas -> Alloc_check.check_beta ~emit ~app:i betas.(i))
        betas;
      Option.iter
        (fun allocations ->
          let alloc = allocations.(i) in
          Alloc_check.check_bounds ~emit ~app:i ~max_allocation
            ~is_virtual:(Ptg.is_virtual ptg) alloc;
          match betas with
          | Some betas when procedure = Allocation.Scrap_max ->
            Alloc_check.check_level_share ~emit ~app:i
              ~budget:(Allocation.budget_of ref_cluster ~beta:betas.(i))
              ~beta:betas.(i) ~dag:ptg.Ptg.dag
              ~is_virtual:(Ptg.is_virtual ptg) alloc
          | _ -> ())
        allocations)
    schedules;
  (match (strategy, betas) with
  | Some Strategy.Selfish, _ | None, _ | _, None -> ()
  | Some _, Some betas ->
    Alloc_check.check_beta_sum ~emit ~severity:Diagnostic.Error betas);
  Sched_check.check_schedules ~emit ?allocations ?release ?pinned platform
    schedules;
  List.rev !diags

let analyze_prepared ?strategy ?procedure ?release
    (prepared : Pipeline.prepared) platform schedules =
  analyze ?strategy ?procedure ~betas:prepared.Pipeline.betas
    ~allocations:
      (Array.map
         (fun (r : Allocation.result) -> r.Allocation.procs)
         prepared.Pipeline.allocations)
    ?release platform schedules

let lint_trace = Trace_check.lint

let fail_on_error diags =
  match Diagnostic.errors diags with
  | [] -> ()
  | errors -> raise (Violation errors)

let pipeline_hook ?procedure ?release ~strategy platform ~prepared schedules =
  fail_on_error
    (analyze_prepared ~strategy ?procedure ?release prepared platform
       schedules)
