module Trace = Mcs_sched.Trace
module Schedule = Mcs_sched.Schedule
module P = Mcs_platform.Platform
module Redistribution = Mcs_taskmodel.Redistribution
module Reference_cluster = Mcs_sched.Reference_cluster
module Allocation = Mcs_sched.Allocation
open Mcs_util.Floatx

(* A trace identifies applications by their exported id, not by list
   position, so every diagnostic uses [a.Trace.app]. *)

let row_map ~emit ~app (rows : Trace.row array) =
  let tbl = Hashtbl.create (Array.length rows) in
  Array.iter
    (fun (r : Trace.row) ->
      if Hashtbl.mem tbl r.Trace.node then
        emit
          (Diagnostic.error ~app ~node:r.Trace.node Rule.Map_structure
             "node appears in two rows")
      else Hashtbl.add tbl r.Trace.node r)
    rows;
  tbl

let placement_of (r : Trace.row) =
  {
    Schedule.node = r.Trace.node;
    cluster = r.Trace.cluster;
    procs = r.Trace.procs;
    start = r.Trace.start;
    finish = r.Trace.finish;
  }

let known_cluster pf c = c >= 0 && c < P.cluster_count pf

(* MAP005's delay: the redistribution estimate when a platform is
   given, zero without one. A missing cluster is MAP003's, so its edges
   cost nothing rather than cascade. *)
let precedence_cost ?platform (ru : Trace.row) (rv : Trace.row) ~bytes =
  match platform with
  | Some pf
    when not (ru.Trace.virt || rv.Trace.virt)
         && known_cluster pf ru.Trace.cluster
         && known_cluster pf rv.Trace.cluster ->
    Redistribution.estimate pf ~src_cluster:ru.Trace.cluster
      ~src_procs:ru.Trace.procs ~dst_cluster:rv.Trace.cluster
      ~dst_procs:rv.Trace.procs ~bytes
  | Some _ | None -> 0.

let check_app ~emit ?platform ?ref_cluster ?tags (a : Trace.app) =
  let app = a.Trace.app in
  let rows = a.Trace.rows in
  let tbl = row_map ~emit ~app rows in
  Array.iter
    (fun (r : Trace.row) ->
      Sched_check.check_placement ~emit ?platform ?tags ~app
        ~virt:r.Trace.virt ~release:a.Trace.release (placement_of r))
    rows;
  (* MAP001: the recorded makespan is the last finish. *)
  (match a.Trace.makespan with
  | Some m when Array.length rows > 0 ->
    let last =
      Array.fold_left
        (fun acc (r : Trace.row) -> Float.max acc r.Trace.finish)
        neg_infinity rows
    in
    if Float.is_finite last && not (approx_eq m last) then
      emit
        (Diagnostic.error ~app Rule.Map_structure
           "makespan %g differs from the last finish %g" m last)
  | _ -> ());
  (* Rebuild the DAG from the embedded predecessor lists (JSON traces). *)
  let n =
    Array.fold_left
      (fun acc (r : Trace.row) ->
        Array.fold_left
          (fun acc (p : Trace.pred) -> max acc p.Trace.pred_node)
          (max acc r.Trace.node) r.Trace.preds)
      (-1) rows
    + 1
  in
  let edges =
    Array.to_list rows
    |> List.concat_map (fun (r : Trace.row) ->
           Array.to_list r.Trace.preds
           |> List.map (fun (p : Trace.pred) ->
                  (p.Trace.pred_node, r.Trace.node, p.Trace.bytes)))
  in
  let dag =
    if edges = [] then None else Dag_check.check_edges ~emit ~app ~n edges
  in
  (* MAP005 with whatever cost model the inputs allow. *)
  Array.iter
    (fun (rv : Trace.row) ->
      Array.iter
        (fun (p : Trace.pred) ->
          match Hashtbl.find_opt tbl p.Trace.pred_node with
          | None ->
            emit
              (Diagnostic.error ~app ~node:rv.Trace.node Rule.Map_structure
                 "predecessor %d has no row" p.Trace.pred_node)
          | Some ru ->
            Sched_check.check_precedence ~emit ~app ~node:rv.Trace.node
              ~start:rv.Trace.start ~pred:p.Trace.pred_node
              ~pred_finish:ru.Trace.finish
              ~cost:(precedence_cost ?platform ru rv ~bytes:p.Trace.bytes))
        rv.Trace.preds)
    rows;
  (* β and allocation metadata, when the trace carries them. *)
  Option.iter (fun beta -> Alloc_check.check_beta ~emit ~app beta) a.Trace.beta;
  let is_virtual v =
    match Hashtbl.find_opt tbl v with
    | Some (r : Trace.row) -> r.Trace.virt
    | None -> false
  in
  (match (a.Trace.alloc, platform, ref_cluster) with
  | Some alloc, Some pf, Some rc ->
    if Array.length alloc <> n then
      emit
        (Diagnostic.error ~app Rule.Alloc_bounds
           "alloc metadata has %d entries for %d nodes" (Array.length alloc)
           n)
    else begin
      Alloc_check.check_bounds ~emit ~app
        ~max_allocation:(Reference_cluster.max_allocation rc pf)
        ~is_virtual alloc;
      (match (a.Trace.beta, dag) with
      | Some beta, Some dag ->
        Alloc_check.check_level_share ~emit ~app
          ~budget:(Allocation.budget_of rc ~beta) ~beta ~dag ~is_virtual alloc
      | _ -> ());
      (* MAP006 for non-pinned rows. *)
      let pinned_nodes =
        Array.to_list a.Trace.pinned
        |> List.map (fun (r : Trace.row) -> r.Trace.node)
      in
      Array.iter
        (fun (r : Trace.row) ->
          if
            (not r.Trace.virt)
            && (not (List.mem r.Trace.node pinned_nodes))
            && r.Trace.node < n
          then
            Sched_check.check_packing ~emit pf rc ~app
              ~alloc:alloc.(r.Trace.node) (placement_of r))
        rows
    end
  | _ -> ());
  (* ON001: pinned metadata must reappear verbatim among the rows. *)
  Array.iter
    (fun (pin : Trace.row) ->
      match Hashtbl.find_opt tbl pin.Trace.node with
      | None ->
        emit
          (Diagnostic.error ~app ~node:pin.Trace.node
             Rule.Online_pin_stability "pinned task has no placement row")
      | Some (r : Trace.row) ->
        if
          r.Trace.cluster <> pin.Trace.cluster
          || r.Trace.procs <> pin.Trace.procs
          || not (approx_eq r.Trace.start pin.Trace.start)
          || not (approx_eq r.Trace.finish pin.Trace.finish)
        then
          emit
            (Diagnostic.error ~app ~node:pin.Trace.node
               ~window:(pin.Trace.start, pin.Trace.finish)
               Rule.Online_pin_stability
               "pinned at %g..%g on cluster %d but recorded at %g..%g on \
                cluster %d"
               pin.Trace.start pin.Trace.finish pin.Trace.cluster
               r.Trace.start r.Trace.finish r.Trace.cluster))
    a.Trace.pinned

let lint ?platform (doc : Trace.doc) =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let ref_cluster = Option.map Reference_cluster.of_platform platform in
  let tags = Option.map Sched_check.tags platform in
  Array.iter (fun a -> check_app ~emit ?platform ?ref_cluster ?tags a) doc;
  let betas =
    Array.of_list
      (List.filter_map (fun (a : Trace.app) -> a.Trace.beta)
         (Array.to_list doc))
  in
  Alloc_check.check_beta_sum ~emit ~severity:Diagnostic.Warning betas;
  Sched_check.check_overlap ~emit ~rule:Rule.Map_overlap (fun add ->
      Array.iter
        (fun (a : Trace.app) ->
          Array.iter
            (fun { Trace.node; procs; start; finish; _ } ->
              if Float.is_finite start && Float.is_finite finish then
                add ~app:a.Trace.app ~node ~procs ~start ~finish)
            a.Trace.rows)
        doc);
  List.rev !diags
