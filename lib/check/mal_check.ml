module P = Mcs_platform.Platform
module Ptg = Mcs_ptg.Ptg
module Task = Mcs_taskmodel.Task
module Malleability = Mcs_sched.Malleability
open Mcs_util.Floatx

module F = Fault_check

(* Moved processors of a resize = released plus acquired: the size of
   the symmetric difference of the two (duplicate-free) processor
   sets. *)
let moved_procs prev next =
  let mem p a = Array.exists (fun q -> q = p) a in
  Array.fold_left (fun acc p -> if mem p next then acc else acc + 1) 0 prev
  + Array.fold_left (fun acc p -> if mem p prev then acc else acc + 1) 0 next

(* Split one task's chronological segments into resize chains: a chain
   is a maximal run in which every segment but the last has outcome
   [Resized] and each next segment starts where the previous one
   stopped. Every non-[Resized] outcome closes the chain (a retry after
   a failure restarts the work from scratch, opening a new chain). *)
let chains segs =
  let rec cut acc cur = function
    | [] -> List.rev (match cur with [] -> acc | c -> List.rev c :: acc)
    | s :: rest -> (
      match s.F.outcome with
      | F.Resized -> cut acc (s :: cur) rest
      | F.Completed | F.Killed | F.Failed ->
        cut (List.rev (s :: cur) :: acc) [] rest)
  in
  cut [] [] segs

let check_chain ~emit model platform ptg ~app ~node chain =
  match chain with
  | [] -> ()
  | first :: _ ->
    let last = List.nth chain (List.length chain - 1) in
    (match last.F.outcome with
    | F.Resized ->
      emit
        (Diagnostic.error ~app ~node ~window:(last.F.start, last.F.finish)
           Rule.Mal_cost_accounting
           "resized segment at %g..%g has no continuation segment"
           last.F.start last.F.finish)
    | F.Completed | F.Killed | F.Failed -> ());
    if List.length chain > 1 then begin
      (* Adjacent-pair legality (MAL001) and per-segment overhead, then
         the whole chain's work conservation (MAL002). *)
      let work = ref 0. in
      let seg_work e ~overhead =
        let c = P.cluster platform e.F.cluster in
        let full =
          Task.time ptg.Ptg.tasks.(node) ~gflops:c.P.gflops
            ~procs:(max 1 (Array.length e.F.procs))
        in
        (e.F.finish -. e.F.start -. overhead) /. full
      in
      work := seg_work first ~overhead:0.;
      List.iter2
        (fun prev next ->
          let wp = Array.length prev.F.procs
          and wn = Array.length next.F.procs in
          if not (approx_eq ~tol:1e-6 next.F.start prev.F.finish) then
            emit
              (Diagnostic.error ~app ~node ~window:(prev.F.finish, next.F.start)
                 Rule.Mal_cost_accounting
                 "resized segment stops at %g but its continuation starts at \
                  %g"
                 prev.F.finish next.F.start);
          if wn < model.Malleability.min_width then
            emit
              (Diagnostic.error ~app ~node ~window:(next.F.start, next.F.finish)
                 Rule.Mal_width_bounds
                 "resized segment runs on %d processors, below the \
                  malleability floor of %d"
                 wn model.Malleability.min_width);
          if wn > model.Malleability.max_width then
            emit
              (Diagnostic.error ~app ~node ~window:(next.F.start, next.F.finish)
                 Rule.Mal_width_bounds
                 "resized segment runs on %d processors, above the \
                  malleability ceiling of %d"
                 wn model.Malleability.max_width);
          if wn = wp then
            emit
              (Diagnostic.error ~app ~node ~window:(next.F.start, next.F.finish)
                 Rule.Mal_width_bounds
                 "resize kept the width at %d processors (a resize must \
                  change the width)"
                 wn);
          if next.F.cluster <> prev.F.cluster then
            emit
              (Diagnostic.error ~app ~node ~window:(next.F.start, next.F.finish)
                 Rule.Mal_width_bounds
                 "resize moved the task from cluster %d to cluster %d (a \
                  resize stays inside its cluster)"
                 prev.F.cluster next.F.cluster);
          let overhead =
            Malleability.resize_cost model ~moved:(moved_procs prev.F.procs
                                                     next.F.procs)
          in
          let dur = next.F.finish -. next.F.start in
          (* A kill may truncate the segment inside its redistribution
             window; any other outcome must at least pay the charge. *)
          (match next.F.outcome with
          | F.Killed -> ()
          | F.Completed | F.Failed | F.Resized ->
            if dur <. overhead -. 1e-6 then
              emit
                (Diagnostic.error ~app ~node
                   ~window:(next.F.start, next.F.finish)
                   Rule.Mal_cost_accounting
                   "resized segment lasts %g, shorter than its \
                    redistribution overhead %g (%d processors moved)"
                   dur overhead
                   (moved_procs prev.F.procs next.F.procs)));
          work := !work +. seg_work next ~overhead)
        (List.filteri (fun i _ -> i < List.length chain - 1) chain)
        (List.tl chain);
      match last.F.outcome with
      | F.Completed | F.Failed ->
        if not (approx_eq ~tol:1e-6 !work 1.) then
          emit
            (Diagnostic.error ~app ~node
               ~window:(first.F.start, last.F.finish)
               Rule.Mal_cost_accounting
               "resize chain performs %g task's worth of work, expected \
                exactly 1 (overheads excluded)"
               !work)
      | F.Killed ->
        if !work >. 1. +. 1e-6 then
          emit
            (Diagnostic.error ~app ~node
               ~window:(first.F.start, last.F.finish)
               Rule.Mal_cost_accounting
               "killed resize chain performs %g task's worth of work, more \
                than one task"
               !work)
      | F.Resized -> ()
    end

let check model platform ~ptgs execs =
  Malleability.validate model;
  let napps = Array.length ptgs in
  let execs = List.filter (fun e -> e.F.app >= 0 && e.F.app < napps) execs in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let per_task = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let key = (e.F.app, e.F.node) in
      let prev =
        match Hashtbl.find_opt per_task key with Some l -> l | None -> []
      in
      Hashtbl.replace per_task key (e :: prev))
    execs;
  Array.iteri
    (fun app ptg ->
      for node = 0 to Mcs_dag.Dag.node_count ptg.Ptg.dag - 1 do
        match Hashtbl.find_opt per_task (app, node) with
        | None -> ()
        | Some segs ->
          let segs =
            List.sort
              (fun a b ->
                let c = Float.compare a.F.start b.F.start in
                if c <> 0 then c else Float.compare a.F.finish b.F.finish)
              segs
          in
          List.iter
            (fun chain -> check_chain ~emit model platform ptg ~app ~node chain)
            (chains segs)
      done)
    ptgs;
  (* MAL003: MAP004's sweep over every execution segment — the
     post-resize re-placements must coexist with everything else that
     actually ran. *)
  Sched_check.check_overlap ~emit ~rule:Rule.Mal_overlap
    (List.concat_map
       (fun e ->
         List.map
           (fun p ->
             {
               Sched_check.proc = p;
               start = e.F.start;
               finish = e.F.finish;
               app = e.F.app;
               node = e.F.node;
             })
           (Array.to_list e.F.procs))
       execs);
  Diagnostic.sort (List.rev !diags)
