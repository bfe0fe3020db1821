(* Workload driver for the sharded serving engine: replay a synthetic
   Poisson arrival stream against Mcs_serve.Service at a target
   submission rate (or as fast as the mailboxes admit), then report the
   sustained throughput (submissions/s, engine events/s) and the
   virtual-time response-latency percentiles as one JSON summary line —
   preceded by one JSON line per shard. *)

open Cmdliner
module Strategy = Mcs_sched.Strategy
module Workload = Mcs_experiments.Workload
module Engine = Mcs_online.Engine
module Policy = Mcs_online.Policy
module Fault = Mcs_fault.Fault
module Log = Mcs_online.Log
module Service = Mcs_serve.Service
module Shard = Mcs_serve.Shard
module Admission = Mcs_serve.Admission
module Router = Mcs_serve.Router
module Stats = Mcs_serve.Stats

let run site shards inline count seed mean_interarrival family strategy
    dynamic finish_resched policy_name checkpoint_every kill_shard kill_after
    router window capacity reject shed_above rate check faults mttf mttr
    task_fail_p malleable resize_quantum log_path profile profile_format =
  Obs_cli.scoped ~profile ~format:profile_format @@ fun () ->
  let platform = Cli.ok (Mcs_platform.Grid5000.by_name site) in
  let strategy = Cli.ok (Strategy.of_short_name strategy) in
  let family = Cli.ok (Workload.family_of_string family) in
  let router = Cli.ok (Router.choice_of_string router) in
  let malleability =
    if not malleable then None
    else
      Some
        {
          Mcs_sched.Malleability.default with
          Mcs_sched.Malleability.quantum = resize_quantum;
        }
  in
  let policy =
    Cli.checked (fun () ->
        Policy.of_name policy_name
          ~base:
            (Policy.make ?malleability
               ~reschedule_on_departure:(dynamic || finish_resched)
               ~reschedule_on_task_finish:finish_resched strategy))
  in
  let admission =
    {
      Admission.capacity;
      on_full = (if reject then Admission.Reject else Admission.Block);
      shed_above;
      batch_window = window;
    }
  in
  let config =
    {
      Service.shards;
      mode = (if inline then Service.Inline else Service.Domains);
      router;
      admission;
      policy;
      checkpoint_every;
      kill =
        (match kill_shard with
        | Some k -> Some (k, kill_after)
        | None -> None);
      capture_logs = log_path <> None;
      check;
      faults =
        (if faults then
           Some { Fault.default with Fault.mttf; mttr; task_fail_p }
         else None);
      fault_seed = seed;
    }
  in
  let rng = Mcs_prng.Prng.create ~seed in
  let ptgs = Cli.checked (fun () -> Workload.draw rng family ~count) in
  let release = Workload.releases rng ~count ~mean:mean_interarrival in
  let apps = List.mapi (fun i ptg -> (ptg, release.(i))) ptgs in
  let report =
    Cli.checked (fun () -> Service.run_stream ~rate config platform apps)
  in
  let join fmt l = String.concat "," (List.map fmt l) in
  Array.iter
    (fun (r : Shard.report) ->
      Printf.printf
        "{\"event\":\"shard\",\"shard\":%d,\"clusters\":[%s],\"apps\":%d,\
         \"events\":%d,\"reschedules\":%d,\"peak_active\":%d,\
         \"queue_peak\":%d,\"handoffs_in\":%d,\"handoffs_out\":%d,\
         \"restores\":%d,\"violations\":%d}\n"
        r.Shard.shard
        (join string_of_int (Array.to_list r.Shard.clusters))
        (Array.length r.Shard.global_ids)
        r.Shard.engine.Engine.stats.Engine.events_processed
        r.Shard.engine.Engine.stats.Engine.reschedules r.Shard.peak_active
        r.Shard.queue_peak r.Shard.handoffs_in r.Shard.handoffs_out
        r.Shard.restores r.Shard.violations)
    report.Service.shards;
  let p p_ = Stats.percentile report.Service.responses ~p:p_ in
  let makespan =
    Array.fold_left
      (fun acc (r : Shard.report) ->
        Array.fold_left
          (fun acc c -> if Float.is_finite c then Float.max acc c else acc)
          acc r.Shard.engine.Engine.completions)
      0. report.Service.shards
  in
  Printf.printf
    "{\"event\":\"serve_summary\",\"site\":\"%s\",\"shards\":%d,\
     \"mode\":\"%s\",\"router\":\"%s\",\"strategy\":\"%s\",\
     \"submitted\":%d,\"admitted\":%d,\"rejected\":%d,\"handoffs\":%d,\
     \"peak_active\":%d,\"events\":%d,\"reschedules\":%d,\"remapped\":%d,\
     \"restores\":%d,\"violations\":%d,\"wall_s\":%.6f,\"submissions_per_s\":%.1f,\
     \"events_per_s\":%.1f,\"p50_response\":%.17g,\"p99_response\":%.17g,\
     \"virtual_makespan\":%.17g}\n"
    site shards
    (if inline then "inline" else "domains")
    (match router with
    | Router.Round_robin -> "rr"
    | Router.Least_work -> "work"
    | Router.Least_loaded -> "load")
    (Strategy.name strategy) report.Service.submitted report.Service.admitted
    report.Service.rejected report.Service.handoffs report.Service.peak_active
    report.Service.events report.Service.reschedules report.Service.remapped
    report.Service.restores report.Service.violations report.Service.wall_s
    (float_of_int report.Service.admitted /. report.Service.wall_s)
    (float_of_int report.Service.events /. report.Service.wall_s)
    (p 0.50) (p 0.99) makespan;
  (match log_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    List.iter
      (fun (shard, ev) ->
        (* Shard-tag each merged record by wrapping the engine line. *)
        Printf.fprintf oc "{\"shard\":%d,\"record\":%s}\n" shard
          (Log.to_json ev))
      (Service.merged_log report);
    close_out oc;
    Printf.eprintf "wrote %s\n" path);
  if check && report.Service.violations > 0 then begin
    Printf.eprintf "invariant check: %d errors\n" report.Service.violations;
    exit 1
  end

let site =
  Arg.(value & opt string "grid"
       & info [ "site" ]
           ~doc:
             (String.concat ", " Mcs_platform.Grid5000.names
             ^ " (grid: all four sites federated)"))

let shards =
  Arg.(value & opt int 4 & info [ "shards" ] ~doc:"platform partitions")

let inline =
  Arg.(value & flag
       & info [ "inline" ]
           ~doc:
             "deterministic single-domain fallback: run every shard on the \
              calling domain (pickups on mailbox pressure and at close)")

let count =
  Arg.(value & opt int 1000 & info [ "count" ] ~doc:"submitted applications")

let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"PRNG seed")

let mean_interarrival =
  Arg.(value & opt float 1.
       & info [ "mean-interarrival" ]
           ~doc:"mean Poisson inter-arrival time, virtual seconds")

let family =
  Arg.(value & opt string "random"
       & info [ "family" ] ~doc:"random, fft or strassen")

let strategy =
  Arg.(value & opt string "WPS-work"
       & info [ "strategy" ]
           ~doc:"S, ES, PS-cp, PS-width, PS-work, WPS-cp, WPS-width, WPS-work")

let dynamic =
  Arg.(value & flag
       & info [ "dynamic" ]
           ~doc:
             "reschedule on departures too (the serving default is \
              arrival-only: static beta per generation)")

let finish_resched =
  Arg.(value & flag
       & info [ "reschedule-on-finish" ]
           ~doc:
             "reschedule on every task finish as well as on departures \
              (implies the dynamic departure policy; the most reactive — \
              and most expensive — built-in policy)")

let policy_name =
  Arg.(value & opt string "default"
       & info [ "policy" ]
           ~doc:
             (Printf.sprintf
                "named policy over the trigger flags, for every shard: %s"
                (String.concat ", " Policy.names)))

let checkpoint_every =
  Arg.(value & opt int 0
       & info [ "checkpoint-every" ]
           ~doc:
             "checkpoint each shard every N injections (engine snapshot + \
              injection journal; 0 = off) — enables crash recovery")

let kill_shard =
  Arg.(value & opt (some int) None
       & info [ "kill-shard" ]
           ~doc:
             "fault-tolerance drill: kill this shard's serving domain \
              mid-stream and restore it from its latest checkpoint (the \
              recovered merged log is bit-identical to the no-kill run \
              when shedding is off)")

let kill_after =
  Arg.(value & opt int 0
       & info [ "kill-after" ]
           ~doc:"injections the killed shard absorbs before it dies")

let router =
  Arg.(value & opt string "work"
       & info [ "router" ]
           ~doc:
             "shard selection: rr (round-robin), work (least cumulative \
              assigned GFlop, deterministic) or load (least live in-flight \
              load; adaptive, not replayable)")

let window =
  Arg.(value & opt float 0.
       & info [ "window" ]
           ~doc:
             "beta-batching window, virtual seconds: arrivals are admitted \
              at the end of their window so one reschedule absorbs the \
              whole batch (0 = exact admission)")

let capacity =
  Arg.(value & opt int 4096
       & info [ "capacity" ] ~doc:"mailbox slots per shard")

let reject =
  Arg.(value & flag
       & info [ "reject" ]
           ~doc:
             "refuse submissions when the target mailbox is full instead of \
              blocking (backpressure is the default)")

let shed_above =
  Arg.(value & opt (some int) None
       & info [ "shed-above" ]
           ~doc:
             "hand submissions off to the least-loaded peer shard once this \
              many applications are in service on the routed shard")

let rate =
  Arg.(value & opt float 0.
       & info [ "rate" ]
           ~doc:"pace submissions at this many per wall-clock second (0 = \
                 as fast as admission allows)")

let check =
  Arg.(value & flag
       & info [ "check" ]
           ~doc:
             "audit every shard generation with the invariant analyzer \
              (plus the FAULT audit under --faults); exit non-zero on any \
              violation")

let faults =
  Arg.(value & flag
       & info [ "faults" ]
           ~doc:
             "inject a seeded per-shard fault process (shard k draws from \
              seed+k) per --mttf/--mttr/--task-fail-p")

let mttf =
  Arg.(value & opt float Float.infinity
       & info [ "mttf" ] ~doc:"mean time to failure, seconds ('inf' = none)")

let mttr =
  Arg.(value & opt float 60.
       & info [ "mttr" ] ~doc:"mean time to repair, seconds")

let task_fail_p =
  Arg.(value & opt float 0.
       & info [ "task-fail-p" ]
           ~doc:"per-attempt transient task failure probability in [0,1]")

let malleable =
  Arg.(value & flag
       & info [ "malleable" ]
           ~doc:
             "let each shard's engine grow/shrink running tasks at resize \
              points under the default malleability model")

let resize_quantum =
  Arg.(value & opt float Mcs_sched.Malleability.default.quantum
       & info [ "resize-quantum" ]
           ~doc:"grid spacing of legal resize points, seconds")

let log_path =
  Arg.(value & opt (some string) None
       & info [ "log" ]
           ~doc:
             "capture per-shard event logs and write the deterministic \
              sort-merge (global app ids, shard-tagged JSONL) to this path")

let cmd =
  let doc = "drive the sharded scheduler-as-a-service engine" in
  Cmd.v
    (Cmd.info "mcs_serve" ~doc)
    Term.(
      const run $ site $ shards $ inline $ count $ seed $ mean_interarrival
      $ family $ strategy $ dynamic $ finish_resched $ policy_name
      $ checkpoint_every $ kill_shard $ kill_after $ router $ window
      $ capacity $ reject $ shed_above $ rate $ check $ faults $ mttf $ mttr
      $ task_fail_p $ malleable $ resize_quantum $ log_path $ Obs_cli.profile
      $ Obs_cli.profile_format)

let () = exit (Cmd.eval cmd)
