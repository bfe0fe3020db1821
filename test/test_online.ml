(* Online engine: determinism, conservation, offline equivalence at
   t = 0, and the no-future-knowledge regression on β recomputation. *)

module Grid5000 = Mcs_platform.Grid5000
module Prng = Mcs_prng.Prng
module Ptg = Mcs_ptg.Ptg
module Schedule = Mcs_sched.Schedule
module Strategy = Mcs_sched.Strategy
module Pipeline = Mcs_sched.Pipeline
open Mcs_online

let random_ptgs n seed =
  let rng = Prng.create ~seed in
  List.init n (fun id ->
      Mcs_ptg.Random_gen.generate ~id rng Mcs_ptg.Random_gen.default)

let workload n seed ~mean =
  let release =
    Mcs_experiments.Workload.releases (Prng.create ~seed:(seed + 1)) ~count:n
      ~mean
  in
  List.mapi (fun i ptg -> (ptg, release.(i))) (random_ptgs n seed)

let placements_equal a b =
  a.Schedule.node = b.Schedule.node
  && a.Schedule.cluster = b.Schedule.cluster
  && a.Schedule.procs = b.Schedule.procs
  && Float.abs (a.Schedule.start -. b.Schedule.start) <= 1e-9
  && Float.abs (a.Schedule.finish -. b.Schedule.finish) <= 1e-9

let check_same_schedules msg expected got =
  List.iteri
    (fun i (e, g) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: app %d placements" msg i)
        true
        (Array.for_all2 placements_equal e.Schedule.placements
           g.Schedule.placements))
    (List.combine expected got)

let test_determinism () =
  let platform = Grid5000.rennes () in
  let apps = workload 5 42 ~mean:40. in
  let policy = Policy.make (Strategy.Weighted (Strategy.Work, 0.7)) in
  let r1 = Engine.run ~policy platform apps in
  let r2 = Engine.run ~policy platform apps in
  check_same_schedules "two runs" r1.Engine.schedules r2.Engine.schedules;
  Alcotest.(check (array (float 0.))) "same completions"
    r1.Engine.completions r2.Engine.completions;
  Alcotest.(check int) "same event count" r1.Engine.stats.Engine.events_processed
    r2.Engine.stats.Engine.events_processed;
  Alcotest.(check int) "same reschedules" r1.Engine.stats.Engine.reschedules
    r2.Engine.stats.Engine.reschedules

let test_conservation () =
  (* Every task placed exactly once, schedules valid (in particular no
     processor oversubscription) even after many partial reschedules. *)
  let platform = Grid5000.lille () in
  let apps = workload 6 7 ~mean:25. in
  let policy = Policy.make Strategy.Equal_share in
  let r = Engine.run ~policy platform apps in
  Alcotest.(check bool) "rescheduled more than once" true
    (r.Engine.stats.Engine.reschedules > List.length apps);
  List.iteri
    (fun i sched ->
      let n = Ptg.node_count sched.Schedule.ptg in
      Alcotest.(check int)
        (Printf.sprintf "app %d: one placement per node" i)
        n
        (Array.length sched.Schedule.placements);
      Array.iteri
        (fun v pl ->
          Alcotest.(check int) "placement labels its node" v pl.Schedule.node)
        sched.Schedule.placements)
    r.Engine.schedules;
  Mcs_check.Check.(fail_on_error (analyze platform r.Engine.schedules));
  (* Starts respect submissions; completions are consistent. *)
  List.iteri
    (fun i ((_, release), sched) ->
      Array.iter
        (fun pl ->
          Alcotest.(check bool)
            (Printf.sprintf "app %d starts after release" i)
            true
            (pl.Schedule.start >= release -. 1e-9))
        sched.Schedule.placements;
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "app %d completion = exit finish" i)
        sched.Schedule.makespan r.Engine.completions.(i))
    (List.combine apps r.Engine.schedules)

let test_offline_equivalence_at_zero () =
  (* All arrivals at t = 0 under the static policy: one rescheduling
     over the full set — placement-for-placement the offline pipeline. *)
  let platform = Grid5000.sophia () in
  List.iter
    (fun strategy ->
      let ptgs = random_ptgs 4 11 in
      let apps = List.map (fun p -> (p, 0.)) ptgs in
      let offline = Pipeline.schedule_concurrent ~strategy platform ptgs in
      let policy = Policy.of_name "static" ~base:(Policy.make strategy) in
      let r = Engine.run ~policy platform apps in
      check_same_schedules
        (Strategy.name strategy)
        offline r.Engine.schedules;
      Alcotest.(check int) "single reschedule" 1
        r.Engine.stats.Engine.reschedules)
    [
      Strategy.Equal_share;
      Strategy.Proportional Strategy.Work;
      Strategy.Weighted (Strategy.Work, 0.7);
    ]

let test_dynamic_beta_single_app_selfish () =
  (* Regression: β is recomputed over *arrived* applications only. Two
     applications far apart in time under ES: while alone, each must get
     β = 1, never 1/2 — the offline approximation over the full
     submission set would leak future knowledge. *)
  let platform = Grid5000.nancy () in
  let ptgs = random_ptgs 2 13 in
  let apps = List.combine ptgs [ 0.; 1e6 ] in
  let reschedules = ref [] in
  let log = function
    | Log.Reschedule { time; betas; _ } -> reschedules := (time, betas) :: !reschedules
    | _ -> ()
  in
  let r =
    Engine.run ~log ~policy:(Policy.make Strategy.Equal_share) platform apps
  in
  let reschedules = List.rev !reschedules in
  Alcotest.(check bool) "at least two reschedules" true
    (List.length reschedules >= 2);
  List.iter
    (fun (time, betas) ->
      List.iter
        (fun (app, beta) ->
          let release = List.nth (List.map snd apps) app in
          Alcotest.(check bool)
            (Printf.sprintf "app %d in β set only after arrival" app)
            true
            (release <= time +. 1e-9);
          (* The second app never overlaps the first: each is alone in
             its active set, so ES must give it the full platform. *)
          Alcotest.(check (float 1e-9)) "alone => β = 1" 1. beta)
        betas)
    reschedules;
  (* Final β of both apps is the alone share. *)
  Alcotest.(check (array (float 1e-9))) "final betas" [| 1.; 1. |] r.Engine.betas

let test_departure_frees_resources () =
  (* With dynamic β, an app arriving while another is mid-flight gets a
     response no worse than under the frozen offline approximation. Also
     exercises that β grows after the competitor departs. *)
  let platform = Grid5000.rennes () in
  let ptgs = random_ptgs 3 17 in
  let releases = [ 0.; 10.; 20. ] in
  let apps = List.combine ptgs releases in
  let betas_seen = ref [] in
  let log = function
    | Log.Reschedule { betas; _ } -> betas_seen := betas :: !betas_seen
    | _ -> ()
  in
  let policy = Policy.make Strategy.Equal_share in
  let r = Engine.run ~log ~policy platform apps in
  Mcs_check.Check.(fail_on_error (analyze platform r.Engine.schedules));
  (* Some reschedule saw a singleton active set (after departures) with
     β = 1 while the full set gave 1/3. *)
  let shares = List.concat_map (List.map snd) !betas_seen in
  Alcotest.(check bool) "β = 1/3 seen" true
    (List.exists (fun b -> Float.abs (b -. (1. /. 3.)) < 1e-9) shares);
  Alcotest.(check bool) "β = 1 seen after departures" true
    (List.exists (fun b -> Float.abs (b -. 1.) < 1e-9) shares)

let test_event_log_ordering () =
  (* The log is in virtual-time order and contains one arrival and one
     departure per application. *)
  let platform = Grid5000.lille () in
  let apps = workload 4 23 ~mean:30. in
  let events = ref [] in
  let log e = events := e :: !events in
  ignore (Engine.run ~log ~policy:(Policy.make Strategy.Equal_share) platform apps);
  let events = List.rev !events in
  let rec monotone last = function
    | [] -> true
    | e :: rest ->
      let t = Log.time e in
      t >= last -. 1e-9 && monotone t rest
  in
  Alcotest.(check bool) "times monotone" true (monotone 0. events);
  let count f = List.length (List.filter f events) in
  Alcotest.(check int) "4 arrivals" 4
    (count (function Log.Arrival _ -> true | _ -> false));
  Alcotest.(check int) "4 departures" 4
    (count (function Log.Departure _ -> true | _ -> false));
  (* Every line is one-object JSON. *)
  List.iter
    (fun e ->
      let s = Log.to_json e in
      Alcotest.(check bool) "json braces" true
        (String.length s > 2 && s.[0] = '{' && s.[String.length s - 1] = '}');
      Alcotest.(check bool) "single line" true
        (not (String.contains s '\n')))
    events

let test_replayable () =
  (* Online schedules replay through the fluid network model like any
     offline schedule (reuse of lib/sim, no fork). *)
  let platform = Grid5000.sophia () in
  let apps = workload 4 29 ~mean:35. in
  let r = Engine.run ~policy:(Policy.make Strategy.Equal_share) platform apps in
  let release = Array.of_list (List.map snd apps) in
  let sim = Mcs_sim.Replay.run ~release platform r.Engine.schedules in
  Array.iteri
    (fun i m ->
      Alcotest.(check bool)
        (Printf.sprintf "app %d simulated makespan positive" i)
        true (m > 0.);
      Alcotest.(check bool) "simulated completion after release" true
        (m >= release.(i) -. 1e-9))
    sim.Mcs_sim.Replay.makespans

(* ---------- Policy kernel, snapshot/restore, speculation ---------- *)

let makespan (r : Engine.result) =
  Array.fold_left
    (fun acc c -> if Float.is_finite c then Float.max acc c else acc)
    0. r.Engine.completions

let contains_sub line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  go 0

let fault_scenario_for platform seed =
  Mcs_fault.Fault.generate ~seed platform
    {
      Mcs_fault.Fault.default with
      Mcs_fault.Fault.mttf = 400.;
      mttr = 60.;
      task_fail_p = 0.1;
      horizon = 1500.;
    }

(* Uninterrupted run: one session, straight to quiescence. *)
let run_plain ?faults ~policy platform apps =
  let logs = ref [] in
  let log e = logs := Log.to_json e :: !logs in
  let s = Engine.create ~log ?faults ~policy platform apps in
  Engine.advance s;
  (List.rev !logs, Engine.result s)

(* What [run_split] does around its snapshot. [Source_first] runs the
   source on to quiescence before the restore, its log discarded: a
   snapshot that shares any state with its source then diverges.
   [Chained] advances the restored session to twice the split,
   snapshots it in turn and finishes on a restore of that: a restored
   session must record the calls it repeated. Its source is created
   empty and given the applications by [submit], so those calls are
   the ones that matter. *)
type split_mode = Abandon | Source_first | Chained

let split_modes = [ Abandon; Source_first; Chained ]

let split_mode_name = function
  | Abandon -> "source abandoned"
  | Source_first -> "source run first"
  | Chained -> "restore restored"

(* Interrupted run: advance to [split], snapshot, and finish on a restore
   of the snapshot. The log sink is handed to the restored session, so
   the combined stream must equal the uninterrupted one bit for bit. *)
let run_split ?faults ?(mode = Abandon) ~policy ~split platform apps =
  let logs = ref [] in
  let log e = logs := Log.to_json e :: !logs in
  let s =
    if mode = Chained then begin
      let s = Engine.create ~log ?faults ~policy platform [] in
      List.iter
        (fun (ptg, release) ->
          ignore (Engine.submit s ptg ~release ~at:release : int))
        apps;
      s
    end
    else Engine.create ~log ?faults ~policy platform apps
  in
  Engine.advance ~upto:split s;
  let snap = Engine.snapshot s in
  if mode = Source_first then begin
    let kept = !logs in
    Engine.advance s;
    logs := kept
  end;
  let s' = Engine.restore ~log snap in
  let s' =
    if mode = Chained then begin
      Engine.advance ~upto:(2. *. split) s';
      Engine.restore ~log (Engine.snapshot s')
    end
    else s'
  in
  Engine.advance s';
  (List.rev !logs, Engine.result s')

let same_outcome (l0, r0) (l1, r1) =
  l0 = l1
  && Array.for_all2 Float.equal r0.Engine.completions r1.Engine.completions
  && r0.Engine.executions = r1.Engine.executions

let test_snapshot_restore_identical () =
  let platform = Grid5000.rennes () in
  let apps = workload 6 21 ~mean:25. in
  let policy = Policy.make (Strategy.Weighted (Strategy.Work, 0.7)) in
  let plain = run_plain ~policy platform apps in
  List.iter
    (fun split ->
      Alcotest.(check bool)
        (Printf.sprintf "split at %g replays the uninterrupted log" split)
        true
        (same_outcome plain (run_split ~policy ~split platform apps)))
    [ 0.; 40.; 90.; 1e12 ]

let test_snapshot_restore_identical_faults () =
  let platform = Grid5000.rennes () in
  let apps = workload 6 77 ~mean:20. in
  let faults = fault_scenario_for platform 5 in
  let policy =
    Policy.of_name "shrink-retry"
      ~base:
        (Policy.make
           ~faults:
             { Policy.default_faults with Policy.shrink_on_retry = true }
           (Strategy.Weighted (Strategy.Work, 0.7)))
  in
  let plain = run_plain ~faults ~policy platform apps in
  Alcotest.(check bool)
    "scenario exercises faults" true
    ((snd plain).Engine.stats.Engine.kills > 0
    || (snd plain).Engine.stats.Engine.task_failures > 0);
  List.iter
    (fun split ->
      List.iter
        (fun mode ->
          Alcotest.(check bool)
            (Printf.sprintf "faulted split at %g is bit-identical, %s" split
               (split_mode_name mode))
            true
            (same_outcome plain
               (run_split ~faults ~mode ~policy ~split platform apps)))
        split_modes)
    [ 30.; 120. ]

let strategies =
  [
    Strategy.Selfish;
    Strategy.Equal_share;
    Strategy.Proportional Strategy.Work;
    Strategy.Weighted (Strategy.Work, 0.7);
  ]

let qcheck_snapshot_restore =
  QCheck.Test.make
    ~name:"snapshot → restore → continue is bit-identical" ~count:15
    QCheck.(
      triple (int_range 0 10_000)
        (int_range 0 (List.length strategies - 1))
        (int_range 0 100))
    (fun (seed, strat_i, percent) ->
      let platform = Grid5000.rennes () in
      let apps = workload 5 seed ~mean:20. in
      let faulted = seed mod 2 = 0 in
      let faults =
        if faulted then Some (fault_scenario_for platform (seed + 7))
        else None
      in
      let policy =
        Policy.of_name
          (if faulted then "shrink-retry" else "default")
          ~base:
            (Policy.make
               ~faults:
                 {
                   Policy.default_faults with
                   Policy.shrink_on_retry = faulted;
                 }
               (List.nth strategies strat_i))
      in
      let plain = run_plain ?faults ~policy platform apps in
      let split = float_of_int percent /. 100. *. makespan (snd plain) in
      List.for_all
        (fun mode ->
          same_outcome plain
            (run_split ?faults ~mode ~policy ~split platform apps))
        split_modes)

let test_policy_swap_deterministic () =
  let platform = Grid5000.rennes () in
  let apps = workload 6 33 ~mean:25. in
  let policy = Policy.make (Strategy.Weighted (Strategy.Work, 0.7)) in
  let run () =
    let logs = ref [] and errors = ref 0 in
    let log e = logs := Log.to_json e :: !logs in
    let check ds = errors := !errors + List.length (Mcs_check.Diagnostic.errors ds) in
    let s =
      Engine.create ~log ~check
        ~policy:(Policy.of_name "static" ~base:policy)
        platform apps
    in
    Engine.advance ~upto:60. s;
    Engine.set_policy s (Policy.of_name "eager" ~base:policy);
    Alcotest.(check string)
      "policy swapped" "eager" (Engine.policy s).Policy.name;
    Engine.advance s;
    (List.rev !logs, Engine.result s, !errors)
  in
  let l1, r1, e1 = run () in
  let l2, r2, e2 = run () in
  Alcotest.(check int) "checker clean" 0 (e1 + e2);
  Alcotest.(check (list string)) "swapped runs log identically" l1 l2;
  Alcotest.(check bool)
    "completions bit-identical" true
    (Array.for_all2 Float.equal r1.Engine.completions r2.Engine.completions);
  Alcotest.(check bool)
    "the swap remap is logged" true
    (List.exists (fun line -> contains_sub line "policy_swap") l1);
  (* The execution audit judges the whole run by the final policy's
     malleability model and retry bound, so a swap may change neither:
     a swap from a malleable session to a moldable policy would make the
     audit report MAL001 for every resized segment run before it. *)
  let malleable =
    Policy.make
      ~malleability:
        { Mcs_sched.Malleability.default with
          Mcs_sched.Malleability.quantum = 10. }
      Strategy.Equal_share
  in
  let fewer_retries =
    Policy.make
      ~faults:{ Policy.default_faults with Policy.max_retries = 1 }
      (Strategy.Weighted (Strategy.Work, 0.7))
  in
  List.iter
    (fun (name, from, into) ->
      let s = Engine.create ~policy:from platform apps in
      Engine.advance ~upto:60. s;
      Alcotest.check_raises name
        (Invalid_argument
           "Engine.set_policy: the malleability model and retry bound are \
            fixed")
        (fun () -> Engine.set_policy s into))
    [
      ("malleable to moldable", malleable, Policy.make Strategy.Equal_share);
      ("another retry bound", policy, fewer_retries);
    ]

let test_what_if_speculation () =
  let platform = Grid5000.rennes () in
  let apps = workload 6 11 ~mean:20. in
  let policy = Policy.make (Strategy.Weighted (Strategy.Work, 0.7)) in
  let static = Policy.of_name "static" ~base:policy in
  let s = Engine.create ~policy:static platform apps in
  Engine.advance ~upto:30. s;
  (* A candidate identical to the incumbent ties and is never adopted:
     adoption demands strict improvement. *)
  let same = Engine.what_if s static in
  Alcotest.(check bool) "identical candidate not adopted" false
    same.Engine.adopted;
  Alcotest.(check bool)
    "identical candidate ties bit for bit" true
    (Float.equal same.Engine.baseline_makespan same.Engine.candidate_makespan);
  Alcotest.(check string)
    "incumbent kept" "static" (Engine.policy s).Policy.name;
  (* Dynamic rescheduling vs the static policy on a contended stream. *)
  let sp = Engine.what_if s (Policy.of_name "default" ~base:policy) in
  Alcotest.(check bool)
    "adopted iff strictly better" sp.Engine.adopted
    (sp.Engine.candidate_makespan < sp.Engine.baseline_makespan);
  Alcotest.(check string)
    "live policy reflects the decision"
    (if sp.Engine.adopted then "default" else "static")
    (Engine.policy s).Policy.name;
  (* The speculation's clones predict the live run exactly: finishing
     the session reproduces the chosen clone's makespan bit for bit. *)
  Engine.advance s;
  let final = makespan (Engine.result s) in
  let predicted =
    if sp.Engine.adopted then sp.Engine.candidate_makespan
    else sp.Engine.baseline_makespan
  in
  Alcotest.(check bool)
    "live run matches the chosen clone" true (Float.equal final predicted)

let test_departure_scoped_invalidation () =
  (* Tight arrivals: every application arrives before the first one
     departs, so each first allocation (the misses) happens up front.
     Under Selfish every request is β = 1, so every departure-triggered
     reallocation of a survivor must be an exact cache hit — zero new
     misses. An engine that cleared every cache on any departure
     (instead of releasing only the departing application's) would pay
     one fresh miss per survivor here. *)
  let platform = Grid5000.rennes () in
  let apps = workload 5 13 ~mean:1. in
  let policy = Policy.make Strategy.Selfish in
  let first_departure = ref infinity in
  let log = function
    | Log.Departure { time; _ } ->
      if not (Float.is_finite !first_departure) then first_departure := time
    | _ -> ()
  in
  let s = Engine.create ~log ~policy platform apps in
  Engine.advance s;
  Alcotest.(check bool)
    "probe saw a departure" true
    (Float.is_finite !first_departure);
  let s = Engine.create ~policy platform apps in
  Engine.advance ~upto:!first_departure s;
  Alcotest.(check int) "all applications arrived" 5 (Engine.active_count s);
  let h1, r1, m1 = Engine.alloc_cache_stats s in
  Engine.advance s;
  let h2, r2, m2 = Engine.alloc_cache_stats s in
  Alcotest.(check int) "no new misses after the departures" m1 m2;
  Alcotest.(check bool)
    "survivor reallocations served from their caches" true
    (h2 + r2 > h1 + r1)

let test_audit_restored_session () =
  let platform = Grid5000.rennes () in
  let apps = workload 6 55 ~mean:25. in
  let policy = Policy.make (Strategy.Weighted (Strategy.Work, 0.7)) in
  let s = Engine.create ~policy platform apps in
  Engine.advance ~upto:80. s;
  Alcotest.(check bool) "mid-run session is busy" true
    (Engine.active_count s > 0);
  Alcotest.(check int)
    "live audit clean" 0
    (List.length (Mcs_check.Diagnostic.errors (Engine.audit s)));
  let s' = Engine.restore (Engine.snapshot s) in
  Alcotest.(check int)
    "restored audit clean" 0
    (List.length (Mcs_check.Diagnostic.errors (Engine.audit s')))

(* [mcs_online_cli --count 8 --site lille --seed 2 --faults
   --fault-granularity cluster --mttf 400 --mttr 300]: whole-cluster
   outages black lille out from 268.6 s to 349.3 s, with seven
   applications active. *)
let blackout_scenario () =
  let lille = Grid5000.lille () in
  let rng = Prng.create ~seed:2 in
  let ptgs =
    Mcs_experiments.Workload.draw rng
      Mcs_experiments.Workload.Random_mixed_scenarios ~count:8
  in
  let release = Mcs_experiments.Workload.releases rng ~count:8 ~mean:30. in
  let faults =
    Mcs_fault.Fault.generate ~seed:2 lille
      {
        Mcs_fault.Fault.default with
        Mcs_fault.Fault.mttf = 400.;
        mttr = 300.;
        granularity = Mcs_fault.Fault.Cluster;
      }
  in
  (lille, List.mapi (fun i ptg -> (ptg, release.(i))) ptgs, faults)

let test_blackout_audit_and_restore () =
  let platform, apps, faults = blackout_scenario () in
  let policy = Policy.make (Strategy.Weighted (Strategy.Work, 0.7)) in
  let down = Array.make (Mcs_platform.Platform.total_procs platform) false in
  let log = function
    | Log.Proc_down { procs; _ } -> Array.iter (fun p -> down.(p) <- true) procs
    | Log.Proc_up { procs; _ } -> Array.iter (fun p -> down.(p) <- false) procs
    | _ -> ()
  in
  let s = Engine.create ~log ~faults ~policy platform apps in
  Engine.advance ~upto:300. s;
  Alcotest.(check bool) "every processor is down at t = 300" true
    (Array.for_all Fun.id down);
  Alcotest.(check bool) "applications are active in the blackout" true
    (Engine.active_count s > 0);
  Alcotest.(check int) "no generation to audit mid-blackout" 0
    (List.length (Engine.audit s));
  List.iter
    (fun (name, policy) ->
      Alcotest.(check bool)
        (name ^ ": a snapshot inside the blackout replays the log")
        true
        (same_outcome
           (run_plain ~faults ~policy platform apps)
           (run_split ~faults ~policy ~split:300. platform apps)))
    [
      ("moldable", policy);
      ( "malleable",
        Policy.make
          ~malleability:
            { Mcs_sched.Malleability.default with
              Mcs_sched.Malleability.quantum = 10. }
          (Strategy.Weighted (Strategy.Work, 0.7)) );
    ]

(* [mcs_online_cli --count 8 --seed 1 --malleable --resize-quantum 10
   --redist-cost 5]: a 5 s redistribution window is longer than some
   gaps between resize points, so opportunities fall inside the window
   of the previous resize, where no work has accrued yet. Splitting
   there would charge the overhead twice (MAL002). *)
let test_resize_inside_redistribution_window () =
  let platform = Grid5000.rennes () in
  let rng = Prng.create ~seed:1 in
  let ptgs =
    Mcs_experiments.Workload.draw rng
      Mcs_experiments.Workload.Random_mixed_scenarios ~count:8
  in
  let release = Mcs_experiments.Workload.releases rng ~count:8 ~mean:30. in
  let malleability =
    { Mcs_sched.Malleability.default with
      Mcs_sched.Malleability.quantum = 10.;
      redist_cost = 5. }
  in
  let r =
    Engine.run ~check:Mcs_check.Check.fail_on_error
      ~policy:
        (Policy.make ~malleability (Strategy.Weighted (Strategy.Work, 0.7)))
      platform
      (List.mapi (fun i ptg -> (ptg, release.(i))) ptgs)
  in
  Alcotest.(check bool) "the run resizes" true (r.Engine.stats.Engine.resizes > 0)

let test_policy_flags_and_kernel_registry () =
  (* The longest default backoff, base·2^(max_retries−1), must be
     finite: an infinite one never lets the task restart. *)
  List.iter
    (fun backoff_base ->
      Alcotest.check_raises
        (Printf.sprintf "backoff_base %g rejected" backoff_base)
        (Invalid_argument "Policy.make: ill-formed backoff_base")
        (fun () ->
          ignore
            (Policy.make
               ~faults:{ Policy.default_faults with Policy.backoff_base }
               Strategy.Equal_share)))
    [ Float.nan; -1.; Float.infinity; 1e308 ];
  ignore
    (Policy.make
       ~faults:{ Policy.default_faults with Policy.backoff_base = 0. }
       Strategy.Equal_share);
  let base = Policy.make Strategy.Equal_share in
  Alcotest.(check string) "make names its policy" "default" base.Policy.name;
  let p = Policy.of_name "static" ~base in
  Alcotest.(check bool)
    "static disables both triggers" false
    (p.Policy.reschedule_on_departure || p.Policy.reschedule_on_task_finish);
  let eager = Policy.of_name "eager" ~base:p in
  Alcotest.(check bool)
    "eager enables both triggers" true
    (eager.Policy.reschedule_on_departure
    && eager.Policy.reschedule_on_task_finish);
  let shrink_retry = Policy.of_name "shrink-retry" ~base:p in
  Alcotest.(check bool)
    "shrink-retry shrinks" true
    shrink_retry.Policy.faults.Policy.shrink_on_retry;
  List.iter
    (fun name ->
      Alcotest.(check string)
        (Printf.sprintf "registry round-trips %S" name)
        name
        (Policy.of_name name ~base:p).Policy.name)
    Policy.names;
  (* Retry k waits base·2^(k−1) by default and base·k under
     linear-backoff (base 5 s). *)
  let delays f =
    List.map (fun k -> Policy.retry_delay f ~failures:k) [ 1; 2; 3 ]
  in
  Alcotest.(check (list (float 0.)))
    "exponential backoff" [ 5.; 10.; 20. ] (delays p.Policy.faults);
  Alcotest.(check (list (float 0.)))
    "linear backoff" [ 5.; 10.; 15. ]
    (delays (Policy.of_name "linear-backoff" ~base:p).Policy.faults);
  Alcotest.check_raises "unknown policy rejected"
    (Invalid_argument
       "Policy.of_name: unknown policy \"nope\" (expected default, static, \
        eager, linear-backoff, shrink-retry)")
    (fun () -> ignore (Policy.of_name "nope" ~base:p))

(* ---------- Generation-scoped event queue ---------- *)

module Malleability = Mcs_sched.Malleability

(* Reference model: one ordered set of generation-stamped entries whose
   stale announcements are filtered at pop time. The two-heap queue
   must pop exactly its live sequence. *)
type ref_entry = {
  r_time : float;
  r_kind : Event_queue.kind;
  r_gen : int;
  r_seq : int;
}

let ref_rank = function
  | Event_queue.Task_finish _ -> 0
  | Event_queue.Task_failed _ -> 1
  | Event_queue.Departure _ -> 2
  | Event_queue.Arrival _ -> 3
  | Event_queue.Proc_down _ -> 4
  | Event_queue.Proc_up _ -> 5
  | Event_queue.Resize _ -> 6

let ref_key = function
  | Event_queue.Arrival a | Event_queue.Departure a -> (a, -1)
  | Event_queue.Task_finish { app; node }
  | Event_queue.Task_failed { app; node }
  | Event_queue.Resize { app; node } ->
    (app, node)
  | Event_queue.Proc_down ps | Event_queue.Proc_up ps ->
    ((if Array.length ps = 0 then -1 else ps.(0)), -2)

let ref_cmp a b =
  compare
    (a.r_time, ref_rank a.r_kind, ref_key a.r_kind, a.r_seq)
    (b.r_time, ref_rank b.r_kind, ref_key b.r_kind, b.r_seq)

module Ref_set = Set.Make (struct
  type t = ref_entry

  let compare = ref_cmp
end)

type ref_queue = {
  mutable entries : Ref_set.t;
  mutable live_gen : int;
  mutable next_seq : int;
}

let ref_stale m e =
  match e.r_kind with
  | Event_queue.Arrival _ | Event_queue.Proc_down _ | Event_queue.Proc_up _ ->
    false
  | Event_queue.Task_finish _ | Event_queue.Task_failed _
  | Event_queue.Departure _ | Event_queue.Resize _ ->
    e.r_gen <> m.live_gen

let rec ref_pop m =
  match Ref_set.min_elt_opt m.entries with
  | None -> None
  | Some e ->
    m.entries <- Ref_set.remove e m.entries;
    if ref_stale m e then ref_pop m else Some (e.r_time, e.r_kind)

let ref_live m =
  Ref_set.fold (fun e n -> if ref_stale m e then n else n + 1) m.entries 0

type queue_op =
  | Push of float * Event_queue.kind
  | Burst of (float * Event_queue.kind) list
  | Bump
  | Pop

(* Few apps, nodes, processors and instants, so that equal times and
   equal content keys collide often. *)
let gen_queue_op =
  let open QCheck.Gen in
  let small = int_range 0 2 in
  let task f = map2 f small small in
  let procs =
    map2 (fun p wide -> if wide then [| p; p + 1 |] else [| p |]) small bool
  in
  let announcement =
    oneof
      [
        task (fun app node -> Event_queue.Task_finish { app; node });
        task (fun app node -> Event_queue.Task_failed { app; node });
        map (fun a -> Event_queue.Departure a) small;
        task (fun app node -> Event_queue.Resize { app; node });
      ]
  in
  let kind =
    oneof
      [
        map (fun a -> Event_queue.Arrival a) small;
        announcement;
        map (fun ps -> Event_queue.Proc_down ps) procs;
        map (fun ps -> Event_queue.Proc_up ps) procs;
      ]
  in
  let timed k = map2 (fun t k -> (float_of_int t /. 2., k)) (int_range 0 4) k in
  frequency
    [
      (6, map (fun (t, k) -> Push (t, k)) (timed kind));
      (* A burst outgrows the announcement buffers of one generation,
         so buffers double while holding data, a later pop lands
         mid-growth, and a later generation reuses them. *)
      (1, map (fun l -> Burst l) (list_size (int_range 100 400) (timed announcement)));
      (1, return Bump);
      (4, return Pop);
    ]

let show_push (t, k) =
  let a, b = ref_key k in
  let width =
    match k with
    | Event_queue.Proc_down ps | Event_queue.Proc_up ps ->
      Printf.sprintf "x%d" (Array.length ps)
    | _ -> ""
  in
  Printf.sprintf "push %g kind%d(%d,%d)%s" t (ref_rank k) a b width

let show_queue_op = function
  | Push (t, k) -> show_push (t, k)
  | Burst l -> Printf.sprintf "burst [%s]" (String.concat ", " (List.map show_push l))
  | Bump -> "bump"
  | Pop -> "pop"

let qcheck_queue_matches_reference =
  QCheck.Test.make ~name:"queue pops the live sequence of a stamped heap"
    ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_queue_op ops))
       QCheck.Gen.(list_size (int_range 0 80) gen_queue_op))
    (fun ops ->
      let q = Event_queue.create () in
      let m = { entries = Ref_set.empty; live_gen = 0; next_seq = 0 } in
      let view e = (e.Event_queue.time, e.Event_queue.kind) in
      let push (time, kind) =
        Event_queue.push q ~time kind;
        m.entries <-
          Ref_set.add
            { r_time = time; r_kind = kind; r_gen = m.live_gen; r_seq = m.next_seq }
            m.entries;
        m.next_seq <- m.next_seq + 1
      in
      let step = function
        | Push (time, kind) ->
          push (time, kind);
          true
        | Burst l ->
          List.iter push l;
          true
        | Bump ->
          Event_queue.next_generation q;
          m.live_gen <- m.live_gen + 1;
          true
        | Pop ->
          let peeked = Option.map view (Event_queue.peek q) in
          let popped = Option.map view (Event_queue.pop q) in
          peeked = popped && popped = ref_pop m
      in
      let agrees () =
        let live = ref_live m in
        Event_queue.length q = live
        && Event_queue.is_empty q = (live = 0)
        && Event_queue.pushed q = m.next_seq
      in
      let rec drain () =
        match (Option.map view (Event_queue.pop q), ref_pop m) with
        | None, None -> true
        | a, b -> a = b && drain ()
      in
      List.for_all (fun op -> step op && agrees ()) ops && drain ())

(* The same operations against a plain list: a push appends, a new
   generation drops the announcements, and a pop takes the least
   (time, kind rank, content key, sequence). The queue's slots keep no
   value, so every popped kind is one it rebuilt: the (time, kind)
   sequences must be equal, and a processor event must return the very
   array pushed, also when two of them share their first id (the
   generator draws [[|p|]] and [[|p; p + 1|]]). *)
let qcheck_queue_matches_list =
  QCheck.Test.make ~name:"queue rebuilds every kind, processor arrays shared"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_queue_op ops))
       QCheck.Gen.(list_size (int_range 0 80) gen_queue_op))
    (fun ops ->
      let q = Event_queue.create () in
      (* Sorted before a pop whenever a push came since the last. *)
      let pending = ref [] and sorted = ref true and seq = ref 0 in
      let push (time, kind) =
        Event_queue.push q ~time kind;
        pending := (time, ref_rank kind, ref_key kind, !seq, kind) :: !pending;
        sorted := false;
        incr seq
      in
      let announcement (_, _, _, _, kind) =
        match kind with
        | Event_queue.Task_finish _ | Event_queue.Task_failed _
        | Event_queue.Departure _ | Event_queue.Resize _ ->
          true
        | Event_queue.Arrival _ | Event_queue.Proc_down _
        | Event_queue.Proc_up _ ->
          false
      in
      let key (t, r, k, n, _) = (t, r, k, n) in
      let list_pop () =
        if not !sorted then begin
          pending := List.sort (fun a b -> compare (key a) (key b)) !pending;
          sorted := true
        end;
        match !pending with
        | [] -> None
        | (time, _, _, _, kind) :: rest ->
          pending := rest;
          Some (time, kind)
      in
      let same expected got =
        match (expected, got) with
        | None, None -> true
        | Some (time, kind), Some e ->
          time = e.Event_queue.time
          && kind = e.Event_queue.kind
          && (match (kind, e.Event_queue.kind) with
             | Event_queue.Proc_down a, Event_queue.Proc_down b
             | Event_queue.Proc_up a, Event_queue.Proc_up b ->
               a == b
             | _ -> true)
        | _ -> false
      in
      let step = function
        | Push (time, kind) -> push (time, kind)
        | Burst l -> List.iter push l
        | Bump ->
          Event_queue.next_generation q;
          pending := List.filter (fun e -> not (announcement e)) !pending
        | Pop -> ()
      in
      let rec drain () =
        let expected = list_pop () in
        same expected (Event_queue.pop q) && (expected = None || drain ())
      in
      List.for_all
        (fun op ->
          match op with
          | Pop ->
            let expected = list_pop () in
            let peeked = Event_queue.peek q in
            same expected peeked && same expected (Event_queue.pop q)
          | op ->
            step op;
            Event_queue.length q = List.length !pending)
        ops
      && drain ())

(* Minor words [f] allocates, net of what measuring costs. *)
let minor_words_of f =
  let measure f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let base = measure ignore in
  measure f -. base

(* The announcement buffers outlive a generation: once grown, a
   generation of announcements allocates nothing beyond the kinds the
   caller built. A pop that empties the queue frees them, so the next
   push grows them afresh. *)
let test_queue_buffers () =
  let events =
    Array.init 1000 (fun i ->
        {
          Event_queue.time = float_of_int (i * 7919 mod 1000) /. 8.;
          kind =
            (match i mod 3 with
            | 0 -> Event_queue.Task_finish { app = i mod 7; node = i }
            | 1 -> Event_queue.Resize { app = i mod 5; node = i }
            | _ -> Event_queue.Departure i);
        })
  in
  let q = Event_queue.create () in
  let generation () =
    for i = 0 to Array.length events - 1 do
      let e = events.(i) in
      Event_queue.push q ~time:e.Event_queue.time e.Event_queue.kind
    done;
    Event_queue.next_generation q
  in
  generation ();
  Alcotest.(check (float 0.))
    "a warm generation of 1000 announcements" 0. (minor_words_of generation);
  Alcotest.(check int) "pushes counted" 2000 (Event_queue.pushed q);
  Alcotest.(check bool) "generation dropped" true (Event_queue.is_empty q);
  let push () = Event_queue.push q ~time:1. events.(0).Event_queue.kind in
  push ();
  Alcotest.(check bool) "a pop that drains the queue" true
    (Event_queue.pop q <> None && Event_queue.is_empty q);
  Alcotest.(check bool) "frees the buffers" true (minor_words_of push > 0.)

let test_pending_events_bounded () =
  (* Every pending event is an unfired arrival, outage or recovery, or
     an announcement of the current generation: at most one finish (or
     failure) and one resize point per task, plus one departure, of each
     active application. *)
  let platform = Grid5000.rennes () in
  let apps = workload 8 77 ~mean:20. in
  let faults = fault_scenario_for platform 5 in
  let policy =
    Policy.make
      ~malleability:
        {
          Malleability.default with
          Malleability.quantum = 15.;
          grow_active_below = 3;
          shrink_active_above = 3;
        }
      (Strategy.Weighted (Strategy.Work, 0.7))
  in
  let nodes =
    Array.of_list (List.map (fun (ptg, _) -> Ptg.node_count ptg) apps)
  in
  let active = Array.make (Array.length nodes) false in
  let log = function
    | Log.Arrival { app; _ } -> active.(app) <- true
    | Log.Departure { app; _ } -> active.(app) <- false
    | _ -> ()
  in
  let s = Engine.create ~log ~faults ~policy platform apps in
  let unfired upto =
    List.fold_left
      (fun n o ->
        n
        + Bool.to_int (o.Mcs_fault.Fault.down_at >= upto)
        + Bool.to_int (o.Mcs_fault.Fault.up_at >= upto))
      0 faults.Mcs_fault.Fault.outages
  in
  let upto = ref 0. in
  while Engine.in_service s > 0 && !upto < 1e5 do
    upto := !upto +. 5.;
    Engine.advance ~upto:!upto s;
    let announced = ref 0 in
    Array.iteri
      (fun i on -> if on then announced := !announced + (2 * nodes.(i)) + 1)
      active;
    let bound =
      Engine.in_service s - Engine.active_count s + unfired !upto + !announced
    in
    if Engine.pending_events s > bound then
      Alcotest.failf "at t=%g: %d pending events exceed the bound %d" !upto
        (Engine.pending_events s) bound
  done;
  let stats = (Engine.result s).Engine.stats in
  Alcotest.(check bool)
    "faults and resizes exercised" true
    ((stats.Engine.kills > 0 || stats.Engine.task_failures > 0)
    && stats.Engine.resizes > 0)

(* What the engine allocates per remapped placement, over a whole run
   that reschedules on every task finish, in minor words (dune's default
   profile). The mapper's own share is pinned by [sched.mapper]
   "allocation budget" and the allocator's by [sched.alloc_cache]
   "allocation budget per increment"; this pins the engine's plumbing
   around them: pinning, availability, announcements and write-back,
   plus the live allocation steps each reschedule runs. An engine that
   copies its placement arrays around every map and boxes every queue
   entry allocates 627 words here, and one whose allocation loop boxes
   the levels it repairs allocates 564; this one allocates about 95. *)
let test_engine_allocation_budget () =
  let platform = Grid5000.rennes () in
  let apps = workload 8 5 ~mean:30. in
  let policy =
    Policy.make ~reschedule_on_task_finish:true
      (Strategy.Weighted (Strategy.Work, 0.7))
  in
  let per_remap () =
    let s = Engine.create ~policy platform apps in
    let words = minor_words_of (fun () -> Engine.advance s) in
    words /. float_of_int (Engine.result s).Engine.stats.Engine.remapped_tasks
  in
  Mcs_obs.Obs.disable ();
  ignore (per_remap ());
  let per = per_remap () in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per remapped placement (budget 200)" per)
    true (per <= 200.)

let suite =
  [
    ( "online.engine",
      [
        Alcotest.test_case "deterministic under a fixed seed" `Quick
          test_determinism;
        Alcotest.test_case "conservation after rescheduling" `Quick
          test_conservation;
        Alcotest.test_case "t=0 arrivals reproduce offline" `Quick
          test_offline_equivalence_at_zero;
        Alcotest.test_case "β never uses future arrivals" `Quick
          test_dynamic_beta_single_app_selfish;
        Alcotest.test_case "departures free resources" `Quick
          test_departure_frees_resources;
        Alcotest.test_case "event log ordering + JSON" `Quick
          test_event_log_ordering;
        Alcotest.test_case "replayable through lib/sim" `Quick test_replayable;
        Alcotest.test_case "allocation budget per remapped placement" `Quick
          test_engine_allocation_budget;
      ] );
    ( "online.kernel",
      [
        Alcotest.test_case "snapshot/restore bit-identical" `Quick
          test_snapshot_restore_identical;
        Alcotest.test_case "snapshot/restore bit-identical (faults)" `Quick
          test_snapshot_restore_identical_faults;
        QCheck_alcotest.to_alcotest qcheck_snapshot_restore;
        Alcotest.test_case "policy swap deterministic & clean" `Quick
          test_policy_swap_deterministic;
        Alcotest.test_case "what-if speculation" `Quick
          test_what_if_speculation;
        Alcotest.test_case "departure-scoped cache invalidation" `Quick
          test_departure_scoped_invalidation;
        Alcotest.test_case "audit clean on restored session" `Quick
          test_audit_restored_session;
        Alcotest.test_case "blackout: no audit, snapshot replays" `Quick
          test_blackout_audit_and_restore;
        Alcotest.test_case "resize inside a redistribution window" `Quick
          test_resize_inside_redistribution_window;
        Alcotest.test_case "policy flags & kernel registry" `Quick
          test_policy_flags_and_kernel_registry;
      ] );
    ( "online.queue",
      [
        QCheck_alcotest.to_alcotest qcheck_queue_matches_reference;
        QCheck_alcotest.to_alcotest qcheck_queue_matches_list;
        Alcotest.test_case "pending events bounded by live work" `Quick
          test_pending_events_bounded;
        Alcotest.test_case "announcement buffers reused, freed on drain"
          `Quick test_queue_buffers;
      ] );
  ]
