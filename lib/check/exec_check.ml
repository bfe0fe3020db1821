module P = Mcs_platform.Platform
module Ptg = Mcs_ptg.Ptg
module Task = Mcs_taskmodel.Task
module Malleability = Mcs_sched.Malleability
module Timeline = Mcs_util.Timeline
open Mcs_util.Floatx

type outcome = Completed | Killed | Failed | Resized

type execution = {
  app : int;
  node : int;
  cluster : int;
  procs : int array;
  start : float;
  finish : float;
  outcome : outcome;
}

let outcome_name = function
  | Completed -> "completed"
  | Killed -> "killed"
  | Failed -> "failed"
  | Resized -> "resized"

(* FAULT001 through the reservation machinery: down intervals become
   reservations, an attempt is legal iff every one of its processors is
   "free" (i.e. up) for its whole duration. A kill truncated exactly at
   [down_at] touches the reservation without overlapping it, which
   [Timeline.is_free]'s epsilon already treats as free. *)
let check_down_overlap ~emit ~down platform execs =
  let total = P.total_procs platform in
  if Array.length down <> total then
    invalid_arg "Exec_check.check: down length differs from platform";
  let tl = Timeline.create ~procs:total in
  Array.iteri
    (fun p intervals ->
      List.iter
        (fun (d, u) -> Timeline.reserve tl ~proc:p ~start:d ~finish:u)
        intervals)
    down;
  List.iter
    (fun e ->
      Array.iter
        (fun p ->
          if p < 0 || p >= total then
            emit
              (Diagnostic.error ~app:e.app ~node:e.node
                 Rule.Fault_down_overlap "processor %d out of range" p)
          else if
            not (Timeline.is_free tl ~proc:p ~start:e.start ~finish:e.finish)
          then
            emit
              (Diagnostic.error ~app:e.app ~node:e.node ~proc:p
                 ~window:(e.start, e.finish) Rule.Fault_down_overlap
                 "%s attempt runs on processor %d during one of its down \
                  intervals"
                 (outcome_name e.outcome) p))
        e.procs)
    execs

(* FAULT003's completion rule: exactly one completed attempt, and it
   is the chronologically last one. *)
let check_completion ~emit ~app ~node attempts =
  match List.filter (fun e -> e.outcome = Completed) attempts with
  | [] ->
    emit
      (Diagnostic.error ~app ~node Rule.Fault_conservation
         "task never completed (%d attempt%s recorded)"
         (List.length attempts)
         (if List.length attempts = 1 then "" else "s"))
  | [ c ] ->
    if List.nth attempts (List.length attempts - 1) != c then
      emit
        (Diagnostic.error ~app ~node ~window:(c.start, c.finish)
           Rule.Fault_conservation
           "completion at %g..%g is not the chronologically last attempt"
           c.start c.finish)
  | completed ->
    emit
      (Diagnostic.error ~app ~node Rule.Fault_conservation
         "task completed %d times" (List.length completed))

(* Split one task's chronological attempts into chains: a chain is a
   maximal run of [Resized] segments closed by any other outcome (a
   retry after a failure or kill restarts the work from scratch,
   opening a new chain). A trailing run of [Resized] segments is a
   chain too, one with no continuation. *)
let chains attempts =
  let rec cut acc cur = function
    | [] -> List.rev (match cur with [] -> acc | c -> List.rev c :: acc)
    | e :: rest -> (
      match e.outcome with
      | Resized -> cut acc (e :: cur) rest
      | Completed | Killed | Failed -> cut (List.rev (e :: cur) :: acc) [] rest)
  in
  cut [] [] attempts

(* The time attempt [e] of task [node] would take to do the whole task
   on its cluster and width. *)
let full_time platform ptg node e =
  Task.time ptg.Ptg.tasks.(node)
    ~gflops:(P.cluster platform e.cluster).P.gflops
    ~procs:(max 1 (Array.length e.procs))

(* FAULT003 on a chain of one segment: a completed or failed attempt
   pays the full execution time, a killed one never more. *)
let check_attempt ~emit platform ptg ~app ~node e =
  let full = full_time platform ptg node e in
  let dur = e.finish -. e.start in
  match e.outcome with
  | Completed | Failed ->
    (* Tolerance matched to the simulator's fluid model: durations are
       exact up to float noise. *)
    if not (approx_eq ~tol:1e-6 dur full) then
      emit
        (Diagnostic.error ~app ~node ~window:(e.start, e.finish)
           Rule.Fault_conservation
           "%s attempt lasts %g, expected the full execution time %g"
           (outcome_name e.outcome) dur full)
  | Killed ->
    if dur >. full +. 1e-6 then
      emit
        (Diagnostic.error ~app ~node ~window:(e.start, e.finish)
           Rule.Fault_conservation
           "killed attempt lasts %g, longer than the full execution time %g"
           dur full)
  | Resized -> ()

(* Moved processors of a resize = released plus acquired: the size of
   the symmetric difference of the two (duplicate-free) processor
   sets. *)
let moved_procs prev next =
  let mem p a = Array.exists (fun q -> q = p) a in
  Array.fold_left (fun acc p -> if mem p next then acc else acc + 1) 0 prev
  + Array.fold_left (fun acc p -> if mem p prev then acc else acc + 1) 0 next

(* MAL001-002 on a chain of two or more segments: the legality and
   overhead of each resize, then the chain's work conservation. *)
let check_resize_chain ~emit model platform ptg ~app ~node chain =
  let work e ~overhead =
    (e.finish -. e.start -. overhead) /. full_time platform ptg node e
  in
  let rec resizes acc = function
    | prev :: (next :: _ as rest) ->
      let wp = Array.length prev.procs and wn = Array.length next.procs in
      if not (approx_eq ~tol:1e-6 next.start prev.finish) then
        emit
          (Diagnostic.error ~app ~node ~window:(prev.finish, next.start)
             Rule.Mal_cost_accounting
             "resized segment stops at %g but its continuation starts at %g"
             prev.finish next.start);
      if wn < model.Malleability.min_width then
        emit
          (Diagnostic.error ~app ~node ~window:(next.start, next.finish)
             Rule.Mal_width_bounds
             "resized segment runs on %d processors, below the malleability \
              floor of %d"
             wn model.Malleability.min_width);
      if wn = wp then
        emit
          (Diagnostic.error ~app ~node ~window:(next.start, next.finish)
             Rule.Mal_width_bounds
             "resize kept the width at %d processors (a resize must change \
              the width)"
             wn);
      if next.cluster <> prev.cluster then
        emit
          (Diagnostic.error ~app ~node ~window:(next.start, next.finish)
             Rule.Mal_width_bounds
             "resize moved the task from cluster %d to cluster %d (a resize \
              stays inside its cluster)"
             prev.cluster next.cluster);
      let moved = moved_procs prev.procs next.procs in
      let overhead = Malleability.resize_cost model ~moved in
      let dur = next.finish -. next.start in
      (* A kill may truncate the segment inside its redistribution
         window; any other outcome must at least pay the charge. *)
      if next.outcome <> Killed && dur <. overhead -. 1e-6 then
        emit
          (Diagnostic.error ~app ~node ~window:(next.start, next.finish)
             Rule.Mal_cost_accounting
             "resized segment lasts %g, shorter than its redistribution \
              overhead %g (%d processors moved)"
             dur overhead moved);
      resizes (acc +. work next ~overhead) rest
    | [ _ ] | [] -> acc
  in
  let first = List.hd chain and last = List.nth chain (List.length chain - 1) in
  let total = resizes (work first ~overhead:0.) chain in
  match last.outcome with
  | Completed | Failed ->
    if not (approx_eq ~tol:1e-6 total 1.) then
      emit
        (Diagnostic.error ~app ~node ~window:(first.start, last.finish)
           Rule.Mal_cost_accounting
           "resize chain performs %g task's worth of work, expected exactly \
            1 (overheads excluded)"
           total)
  | Killed ->
    if total >. 1. +. 1e-6 then
      emit
        (Diagnostic.error ~app ~node ~window:(first.start, last.finish)
           Rule.Mal_cost_accounting
           "killed resize chain performs %g task's worth of work, more than \
            one task"
           total)
  | Resized -> ()

let check_chain ~emit ~malleability platform ptg ~app ~node chain =
  let known e = e.cluster >= 0 && e.cluster < P.cluster_count platform in
  List.iter
    (fun e ->
      if not (known e) then
        emit
          (Diagnostic.error ~app ~node Rule.Fault_conservation
             "cluster %d out of range" e.cluster);
      if e.outcome = Resized && malleability = None then
        emit
          (Diagnostic.error ~app ~node ~window:(e.start, e.finish)
             Rule.Mal_width_bounds
             "resized segment in a run without a malleability model"))
    chain;
  let last = List.nth chain (List.length chain - 1) in
  if last.outcome = Resized then
    emit
      (Diagnostic.error ~app ~node ~window:(last.start, last.finish)
         Rule.Mal_cost_accounting
         "resized segment at %g..%g has no continuation segment" last.start
         last.finish);
  (* A chain on a cluster the platform lacks cannot be priced. *)
  if List.for_all known chain then
    match (chain, malleability) with
    | [ e ], _ -> check_attempt ~emit platform ptg ~app ~node e
    | _ :: _ :: _, Some model ->
      check_resize_chain ~emit model platform ptg ~app ~node chain
    | _ :: _ :: _, None | [], _ -> ()

let by_time a b =
  let c = Float.compare a.start b.start in
  if c <> 0 then c else Float.compare a.finish b.finish

let check ~malleability ~max_retries ~down platform ~ptgs execs =
  Option.iter Malleability.validate malleability;
  if max_retries < 0 then invalid_arg "Exec_check.check: negative max_retries";
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let napps = Array.length ptgs in
  let execs =
    List.filter
      (fun e ->
        let known = e.app >= 0 && e.app < napps in
        if not known then
          emit
            (Diagnostic.error ~node:e.node Rule.Fault_conservation
               "execution references unknown application %d" e.app);
        known)
      execs
  in
  let per_task = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let key = (e.app, e.node) in
      let prev =
        match Hashtbl.find_opt per_task key with Some l -> l | None -> []
      in
      Hashtbl.replace per_task key (e :: prev))
    execs;
  check_down_overlap ~emit ~down platform execs;
  (* Applications × nodes, not the hash table, so diagnostics come out
     in a deterministic order. *)
  Array.iteri
    (fun app ptg ->
      for node = 0 to Mcs_dag.Dag.node_count ptg.Ptg.dag - 1 do
        let attempts =
          match Hashtbl.find_opt per_task (app, node) with
          | Some l -> List.sort by_time l
          | None -> []
        in
        let failures =
          List.length (List.filter (fun e -> e.outcome = Failed) attempts)
        in
        if failures > max_retries then
          emit
            (Diagnostic.error ~app ~node Rule.Fault_retry_bound
               "%d transient failures exceed the retry bound of %d" failures
               max_retries);
        if not (Ptg.is_virtual ptg node) then begin
          check_completion ~emit ~app ~node attempts;
          List.iter
            (check_chain ~emit ~malleability platform ptg ~app ~node)
            (chains attempts)
        end
      done)
    ptgs;
  (* MAL003: MAP004's sweep over every recorded attempt — re-placements
     after a resize or a retry must coexist with everything else that
     actually ran. *)
  Sched_check.check_overlap ~emit ~rule:Rule.Mal_overlap (fun add ->
      List.iter
        (fun e ->
          add ~app:e.app ~node:e.node ~procs:e.procs ~start:e.start
            ~finish:e.finish)
        execs);
  Diagnostic.sort (List.rev !diags)
