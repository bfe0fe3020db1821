module Ptg = Mcs_ptg.Ptg
module P = Mcs_platform.Platform
module Schedule = Mcs_sched.Schedule
module Floatx = Mcs_util.Floatx

type status = Pending | Active | Completed

type app = {
  index : int;
  ptg : Ptg.t;
  release : float;
  mutable status : status;
  mutable beta : float;
  mutable placements : Schedule.placement option array;
  mutable completion : float;
  failures : int array;
  retry_at : float array;
  progress : float array;
  seg_overhead : float array;
  mutable verdicts : int array;
  mutable last_alloc : int array;
  alloc_cache : Mcs_sched.Allocation.cache;
}

type t = {
  platform : P.t;
  ref_cluster : Mcs_sched.Reference_cluster.t;
  mutable apps : app array;
  mutable now : float;
  mutable reschedules : int;
  mutable remapped_tasks : int;
  mutable active_apps : int;
  mutable completed_apps : int;
  mutable peak_active : int;
  arena : Mcs_sched.Alloc_arena.t;
  proc_up : bool array;
  mutable executions : Mcs_check.Exec_check.execution list;
  mutable kills : int;
  mutable task_failures : int;
  mutable fault_events : int;
  mutable resizes : int;
}

let make_app index ptg release =
  if not (Float.is_finite release) || release < 0. then
    invalid_arg "State.create: ill-formed release time";
  let n = Ptg.node_count ptg in
  {
    index;
    ptg;
    release;
    status = Pending;
    beta = Float.nan;
    placements = Array.make n None;
    completion = Float.nan;
    failures = Array.make n 0;
    retry_at = Array.make n 0.;
    progress = Array.make n 0.;
    seg_overhead = Array.make n 0.;
    verdicts = [||];
    last_alloc = [||];
    alloc_cache = Mcs_sched.Allocation.cache_create ();
  }

let create platform apps =
  let apps =
    Array.of_list
      (List.mapi (fun index (ptg, release) -> make_app index ptg release) apps)
  in
  {
    platform;
    ref_cluster = Mcs_sched.Reference_cluster.of_platform platform;
    apps;
    now = 0.;
    reschedules = 0;
    remapped_tasks = 0;
    active_apps = 0;
    completed_apps = 0;
    peak_active = 0;
    arena = Mcs_sched.Alloc_arena.create ();
    proc_up = Array.make (P.total_procs platform) true;
    executions = [];
    kills = 0;
    task_failures = 0;
    fault_events = 0;
    resizes = 0;
  }

(* Appending is O(apps) per call; submissions reach the engine in
   batches (the serving layer drains its mailbox before stepping), so
   the quadratic worst case never materialises in practice. *)
let add_app t ptg ~release =
  let app = make_app (Array.length t.apps) ptg release in
  t.apps <- Array.append t.apps [| app |];
  app

let active t =
  Array.fold_right
    (fun app acc -> if app.status = Active then app :: acc else acc)
    t.apps []

let pinned_of t app =
  Array.map
    (fun pl ->
      match pl with
      | Some p when p.Schedule.start <= t.now +. Floatx.eps -> Some p
      | Some _ | None -> None)
    app.placements

let alloc_cache_stats t =
  Array.fold_left
    (fun (h, r, m) app ->
      let s = Mcs_sched.Allocation.cache_stats app.alloc_cache in
      ( h + s.Mcs_sched.Allocation.hits,
        r + s.Mcs_sched.Allocation.rescales,
        m + s.Mcs_sched.Allocation.misses ))
    (0, 0, 0) t.apps

let up_counts t = P.up_counts t.platform ~up:t.proc_up
let up_power t = P.up_power t.platform ~up:t.proc_up
let any_up t = Array.exists Fun.id t.proc_up
let all_up t = Array.for_all Fun.id t.proc_up

let record_execution t (app : app) v (pl : Schedule.placement)
    ~(finish : float) ~outcome =
  t.executions <-
    {
      Mcs_check.Exec_check.app = app.index;
      node = v;
      cluster = pl.Schedule.cluster;
      procs = pl.Schedule.procs;
      start = pl.Schedule.start;
      finish;
      outcome;
    }
    :: t.executions

let schedules t =
  Array.to_list
    (Array.map
       (fun app ->
         let placements =
           Array.map
             (fun pl ->
               match pl with
               | Some p -> p
               | None -> invalid_arg "State.schedules: unscheduled task")
             app.placements
         in
         Schedule.make ~ptg:app.ptg ~placements)
       t.apps)
