module Schedule = Mcs_sched.Schedule
module Strategy = Mcs_sched.Strategy
module Reference_cluster = Mcs_sched.Reference_cluster
open Mcs_util.Floatx

type snapshot_app = {
  index : int;
  ptg : Mcs_ptg.Ptg.t;
  release : float;
  beta : float;
  alloc : int array;
  pinned : Mcs_sched.Schedule.placement option array;
  schedule : Mcs_sched.Schedule.t;
}

type snapshot = {
  now : float;
  strategy : Mcs_sched.Strategy.t;
  apps : snapshot_app list;
}

let placement_eq (a : Schedule.placement) (b : Schedule.placement) =
  a.Schedule.node = b.Schedule.node
  && a.Schedule.cluster = b.Schedule.cluster
  && a.Schedule.procs = b.Schedule.procs
  && approx_eq a.Schedule.start b.Schedule.start
  && approx_eq a.Schedule.finish b.Schedule.finish

let analyze platform snap =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let ref_cluster = Reference_cluster.of_platform platform in
  (* ON002: β must be a function of exactly the active set. *)
  let expected =
    Strategy.betas snap.strategy
      ~ref_speed:ref_cluster.Reference_cluster.speed
      (List.map (fun a -> a.ptg) snap.apps)
  in
  List.iteri
    (fun j a ->
      if not (approx_eq expected.(j) a.beta) then
        emit
          (Diagnostic.error ~app:a.index Rule.Online_beta_active
             "beta %g differs from %g, the value of %s over the %d active \
              applications"
             a.beta expected.(j)
             (Strategy.name snap.strategy)
             (List.length snap.apps)))
    snap.apps;
  List.iter
    (fun a ->
      (* ON003: only arrived applications may be scheduled... *)
      if a.release >. snap.now then
        emit
          (Diagnostic.error ~app:a.index Rule.Online_time_travel
             "rescheduled at time %g but only arrives at %g" snap.now
             a.release);
      Array.iteri
        (fun v pin ->
          let actual = a.schedule.Schedule.placements.(v) in
          match pin with
          | Some pl ->
            (* ON001: started work is never revoked. *)
            if not (placement_eq pl actual) then
              emit
                (Diagnostic.error ~app:a.index ~node:v
                   Rule.Online_pin_stability
                   "pinned at %g..%g on cluster %d but rescheduled to \
                    %g..%g on cluster %d"
                   pl.Schedule.start pl.Schedule.finish pl.Schedule.cluster
                   actual.Schedule.start actual.Schedule.finish
                   actual.Schedule.cluster)
          | None ->
            (* ...and remapped work lives strictly in the future. *)
            if not (actual.Schedule.start >=. snap.now) then
              emit
                (Diagnostic.error ~app:a.index ~node:v
                   ~window:(actual.Schedule.start, snap.now)
                   Rule.Online_time_travel
                   "unpinned task starts at %g, before the reschedule \
                    time %g"
                   actual.Schedule.start snap.now))
        a.pinned)
    snap.apps;
  (* The static rule sets over the fresh generation, from the one
     driver. It labels diagnostics by list position: relabel them with
     submission indices. *)
  let field f = Array.of_list (List.map f snap.apps) in
  let index = field (fun a -> a.index) in
  let static =
    Check.analyze ~strategy:snap.strategy
      ~betas:(field (fun a -> a.beta))
      ~allocations:(field (fun a -> a.alloc))
      ~release:(field (fun a -> a.release))
      ~pinned:(field (fun a -> a.pinned))
      platform
      (List.map (fun a -> a.schedule) snap.apps)
  in
  List.rev_append !diags
    (List.map
       (fun (d : Diagnostic.t) ->
         { d with app = Option.map (Array.get index) d.Diagnostic.app })
       static)
