module Dag = Mcs_dag.Dag
module Ptg = Mcs_ptg.Ptg
module P = Mcs_platform.Platform
module Redistribution = Mcs_taskmodel.Redistribution
module Schedule = Mcs_sched.Schedule
module Reference_cluster = Mcs_sched.Reference_cluster
module Floatx = Mcs_util.Floatx
open Floatx

type interval = {
  proc : int;
  start : float;
  finish : float;
  app : int;
  node : int;
}

let check_overlap ~emit ~rule intervals =
  let sorted =
    List.sort
      (fun a b ->
        let c = compare a.proc b.proc in
        if c <> 0 then c
        else
          let c = Float.compare a.start b.start in
          if c <> 0 then c else Float.compare a.finish b.finish)
      intervals
  in
  (* Per processor, track the latest finish seen so far: any later
     interval starting strictly before it races with the one that set
     it. *)
  let cur = ref None in
  List.iter
    (fun iv ->
      (match !cur with
      | Some (proc, finish, app, node)
        when proc = iv.proc && iv.start <. finish ->
        emit
          (Diagnostic.error ~app:iv.app ~node:iv.node ~proc:iv.proc
             ~window:(iv.start, Float.min finish iv.finish)
             rule
             "runs while app %d node %d still holds the processor" app node)
      | _ -> ());
      match !cur with
      | Some (proc, finish, _, _) when proc = iv.proc && finish >= iv.finish ->
        ()
      | _ -> cur := Some (iv.proc, iv.finish, iv.app, iv.node))
    sorted

let check_placement ~emit ?platform ~app ~virt ~release
    (pl : Schedule.placement) =
  let { Schedule.node; cluster; procs; start; finish } = pl in
  let finite = Float.is_finite start && Float.is_finite finish in
  (* MAP001: finite, ordered times. *)
  if not finite then
    emit
      (Diagnostic.error ~app ~node Rule.Map_structure
         "non-finite times %g..%g" start finish)
  else if not (finish >=. start) then
    emit
      (Diagnostic.error ~app ~node ~window:(start, finish) Rule.Map_structure
         "finishes at %g before starting at %g" finish start);
  (* MAP002: virtual tasks are free and instantaneous. *)
  if virt then begin
    if Array.length procs > 0 then
      emit
        (Diagnostic.error ~app ~node Rule.Map_virtual
           "virtual task holds %d processors" (Array.length procs));
    if finite && not (approx_eq start finish) then
      emit
        (Diagnostic.error ~app ~node ~window:(start, finish) Rule.Map_virtual
           "virtual task takes %g seconds" (finish -. start))
  end
  else if Array.length procs = 0 then
    emit
      (Diagnostic.error ~app ~node Rule.Map_virtual
         "real task holds no processor")
  else begin
    (* MAP003: one real cluster, distinct in-range processors. *)
    let sorted = Array.copy procs in
    Array.sort compare sorted;
    for i = 1 to Array.length sorted - 1 do
      if sorted.(i) = sorted.(i - 1) then
        emit
          (Diagnostic.error ~app ~node ~proc:sorted.(i) Rule.Map_cluster
             "processor listed twice")
    done;
    match platform with
    | None ->
      Array.iter
        (fun p ->
          if p < 0 then
            emit
              (Diagnostic.error ~app ~node ~proc:p Rule.Map_cluster
                 "negative processor id"))
        procs
    | Some pf ->
      if cluster < 0 || cluster >= P.cluster_count pf then
        emit
          (Diagnostic.error ~app ~node Rule.Map_cluster
             "cluster %d does not exist on %s" cluster (P.name pf))
      else
        Array.iter
          (fun p ->
            if p < 0 || p >= P.total_procs pf then
              emit
                (Diagnostic.error ~app ~node ~proc:p Rule.Map_cluster
                   "processor id outside 0..%d" (P.total_procs pf - 1))
            else if P.cluster_of_proc pf p <> cluster then
              emit
                (Diagnostic.error ~app ~node ~proc:p Rule.Map_cluster
                   "processor belongs to cluster %d, task is on %d"
                   (P.cluster_of_proc pf p) cluster))
          procs
  end;
  (* MAP007: nothing before the submission date. *)
  if Float.is_finite start && not (start >=. release) then
    emit
      (Diagnostic.error ~app ~node ~window:(release, start) Rule.Map_release
         "starts at %g before the release at %g" start release)

let check_packing ~emit platform ref_cluster ~app ~alloc
    (pl : Schedule.placement) =
  let { Schedule.node; cluster; procs; _ } = pl in
  (* A missing cluster is MAP003's and an allocation below one
     processor ALLOC001's: neither has a translation to compare. *)
  if cluster >= 0 && cluster < P.cluster_count platform && alloc >= 1 then begin
    let limit =
      Reference_cluster.translate ref_cluster platform ~cluster alloc
    in
    if Array.length procs > limit then
      emit
        (Diagnostic.error ~app ~node Rule.Map_packing
           "holds %d processors, allocation translates to %d"
           (Array.length procs) limit)
  end

let check_one ~emit ?alloc ~release ~is_pinned platform ref_cluster ~app
    (s : Schedule.t) =
  let ptg = s.Schedule.ptg in
  let dag = ptg.Ptg.dag in
  let n = Dag.node_count dag in
  if Array.length s.Schedule.placements <> n then
    emit
      (Diagnostic.error ~app Rule.Map_structure
         "%d placements for %d DAG nodes"
         (Array.length s.Schedule.placements)
         n)
  else begin
    let alloc =
      match alloc with
      | Some a when Array.length a = n -> Some a
      | Some _ | None -> None
    in
    Array.iteri
      (fun v (pl : Schedule.placement) ->
        (* MAP001: placements are indexed by DAG node. *)
        let pl =
          if pl.Schedule.node = v then pl
          else begin
            emit
              (Diagnostic.error ~app ~node:v Rule.Map_structure
                 "placement at index %d is labeled node %d" v pl.Schedule.node);
            { pl with Schedule.node = v }
          end
        in
        let virt = Ptg.is_virtual ptg v in
        check_placement ~emit ~platform ~app ~virt ~release pl;
        (* MAP006: pinned placements may carry an allocation from an
           earlier β generation, so they are exempt. *)
        match alloc with
        | Some alloc when not (virt || is_pinned v) ->
          check_packing ~emit platform ref_cluster ~app ~alloc:alloc.(v) pl
        | Some _ | None -> ())
      s.Schedule.placements;
    (* MAP001: the makespan is the exit finish time. *)
    let exit_finish = s.Schedule.placements.(Ptg.exit ptg).Schedule.finish in
    if not (approx_eq s.Schedule.makespan exit_finish) then
      emit
        (Diagnostic.error ~app Rule.Map_structure
           "makespan %g differs from the exit finish %g" s.Schedule.makespan
           exit_finish);
    (* MAP005: starts honour predecessor finishes plus redistribution. *)
    for v = 0 to n - 1 do
      let pv = s.Schedule.placements.(v) in
      Array.iter
        (fun (u, e) ->
          let pu = s.Schedule.placements.(u) in
          let cost =
            if Ptg.is_virtual ptg v || Ptg.is_virtual ptg u then 0.
            else
              Redistribution.estimate platform ~src_cluster:pu.Schedule.cluster
                ~src_procs:pu.Schedule.procs ~dst_cluster:pv.Schedule.cluster
                ~dst_procs:pv.Schedule.procs ~bytes:ptg.Ptg.edge_bytes.(e)
          in
          let ready = pu.Schedule.finish +. cost in
          if not (pv.Schedule.start >=. ready) then
            emit
              (Diagnostic.error ~app ~node:v
                 ~window:(pv.Schedule.start, ready)
                 Rule.Map_precedence
                 "starts at %g but predecessor %d finishes at %g (+%g \
                  redistribution)"
                 pv.Schedule.start u pu.Schedule.finish cost))
        (Dag.preds dag v)
    done
  end

let check_schedules ~emit ?allocations ?release ?pinned platform schedules =
  let count = List.length schedules in
  let ref_cluster = Reference_cluster.of_platform platform in
  let release =
    match release with Some r -> r | None -> Array.make count 0.
  in
  List.iteri
    (fun i s ->
      let alloc = Option.map (fun a -> a.(i)) allocations in
      let is_pinned v =
        match pinned with
        | Some pin -> pin.(i).(v) <> None
        | None -> false
      in
      check_one ~emit ?alloc ~release:release.(i) ~is_pinned platform
        ref_cluster ~app:i s)
    schedules;
  let intervals =
    List.concat
      (List.mapi
         (fun i s ->
           Array.to_list s.Schedule.placements
           |> List.concat_map (fun (pl : Schedule.placement) ->
                  Array.to_list pl.Schedule.procs
                  |> List.map (fun p ->
                         {
                           proc = p;
                           start = pl.Schedule.start;
                           finish = pl.Schedule.finish;
                           app = i;
                           node = pl.Schedule.node;
                         })))
         schedules)
  in
  check_overlap ~emit ~rule:Rule.Map_overlap intervals
