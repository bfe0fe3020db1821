(* Workload driver for the sharded serving engine: replay a synthetic
   Poisson arrival stream against Mcs_serve.Service at a target
   submission rate (or as fast as the mailboxes admit), then report the
   sustained throughput (submissions/s, engine events/s) and the
   virtual-time response-latency percentiles as one JSON summary line —
   preceded by one JSON line per shard. *)

open Cmdliner
module Strategy = Mcs_sched.Strategy
module Engine = Mcs_online.Engine
module Policy = Mcs_online.Policy
module Log = Mcs_online.Log
module Service = Mcs_serve.Service
module Shard = Mcs_serve.Shard
module Admission = Mcs_serve.Admission
module Router = Mcs_serve.Router
module Stats = Mcs_serve.Stats

let router_name = function
  | Router.Round_robin -> "rr"
  | Router.Least_work -> "work"
  | Router.Least_loaded -> "load"

let run (sc : Flags.scenario) mean_interarrival shards inline policy_name
    kill_shard kill_after router admission rate check faults malleability
    log_path profiled =
  profiled @@ fun () ->
  let strategy = sc.strategy in
  let policy =
    Cli.checked (fun () ->
        Policy.of_name policy_name ~base:(Policy.make ?malleability strategy))
  in
  let config =
    {
      Service.shards;
      mode = (if inline then Service.Inline else Service.Domains);
      router;
      admission;
      policy;
      kill = Option.map (fun k -> (k, kill_after)) kill_shard;
      capture_logs = log_path <> None;
      check;
      faults;
      fault_seed = sc.seed;
    }
  in
  let apps = Flags.stream sc ~mean:mean_interarrival in
  let report =
    Cli.checked (fun () -> Service.run_stream ~rate config sc.platform apps)
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
    sc.site shards
    (if inline then "inline" else "domains")
    (router_name router)
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
    Flags.write_file path (fun oc ->
        List.iter
          (fun (shard, ev) ->
            (* Shard-tag each merged record by wrapping the engine line. *)
            Printf.fprintf oc "{\"shard\":%d,\"record\":%s}\n" shard
              (Log.to_json ev))
          (Service.merged_log report)));
  if check && report.Service.violations > 0 then begin
    Printf.eprintf "invariant check: %d errors\n" report.Service.violations;
    exit 1
  end

let shards =
  Arg.(value & opt int 4 & info [ "shards" ] ~doc:"platform partitions")

let inline =
  Arg.(value & flag
       & info [ "inline" ]
           ~doc:
             "deterministic single-domain fallback: run every shard on the \
              calling domain (pickups on mailbox pressure and at close)")

let kill_shard =
  Arg.(value & opt (some int) None
       & info [ "kill-shard" ]
           ~doc:
             "fault-tolerance drill: kill this shard's serving domain \
              mid-stream and rebuild it from its fresh session and a \
              journal of its injections (the recovered merged log is \
              bit-identical to the no-kill run when shedding is off); \
              rejected with --inline, which has no serving domain")

let kill_after =
  Arg.(value & opt int 0
       & info [ "kill-after" ]
           ~doc:"injections the killed shard absorbs before it dies")

let router =
  Arg.(value
       & opt (Flags.conv Router.choice_of_string router_name)
           Router.Least_work
       & info [ "router" ]
           ~doc:
             "shard selection: rr (round-robin), work (least cumulative \
              assigned GFlop, deterministic) or load (least live in-flight \
              load; adaptive, not replayable)")

(* Admission control: the batching window and each shard's mailbox. *)
let admission =
  let make batch_window capacity reject shed_above =
    {
      Admission.capacity;
      on_full = (if reject then Admission.Reject else Admission.Block);
      shed_above;
      batch_window;
    }
  in
  Term.(
    const make
    $ Arg.(value & opt float 0.
           & info [ "window" ]
               ~doc:
                 "beta-batching window, virtual seconds: arrivals are \
                  admitted at the end of their window so one reschedule \
                  absorbs the whole batch (0 = exact admission)")
    $ Arg.(value & opt int 4096
           & info [ "capacity" ] ~doc:"mailbox slots per shard")
    $ Arg.(value & flag
           & info [ "reject" ]
               ~doc:
                 "refuse submissions when the target mailbox is full \
                  instead of blocking (backpressure is the default)")
    $ Arg.(value & opt (some int) None
           & info [ "shed-above" ]
               ~doc:
                 "hand submissions off to the least-loaded peer shard once \
                  this many applications are in service on the routed \
                  shard"))

let rate =
  Arg.(value & opt float 0.
       & info [ "rate" ]
           ~doc:"pace submissions at this many per wall-clock second (0 = \
                 as fast as admission allows)")

let log_path =
  Arg.(value & opt (some string) None
       & info [ "log" ]
           ~doc:
             "capture per-shard event logs and write the deterministic \
              sort-merge (global app ids, shard-tagged JSONL) to this path")

let () =
  Cli.eval "mcs_serve" ~doc:"drive the sharded scheduler-as-a-service engine"
    Term.(
      const run
      $ Flags.scenario ~site:"grid" ~strategy:"WPS-work" ~count:1000
      $ Flags.mean_interarrival 1. $ shards $ inline
      $ Flags.policy ~default:"static"
          ~doc:
            "every shard's rescheduling policy, which picks the triggers \
             and retry shape (the serving default is arrival-only: static \
             beta per generation)"
      $ kill_shard $ kill_after $ router $ admission $ rate
      $ Flags.check
          ~doc:
            "audit every shard generation with the invariant analyzer, \
             then each shard's execution log (FAULT001-003 and \
             MAL001-003); exit non-zero on any violation"
      $ Flags.faults ~full:false
          ~doc:
            "inject a seeded per-shard fault process (shard k draws from \
             seed+k) per --mttf/--mttr/--task-fail-p"
      $ Flags.malleable ~full:false
          ~doc:
            "let each shard's engine grow/shrink running tasks at resize \
             points under the default malleability model"
      $ log_path $ Obs_cli.profiled)
