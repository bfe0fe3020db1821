let phases =
  [
    ( "runner.evaluate",
      "one scenario evaluated under a list of strategies (experiments)" );
    ( "runner.baselines",
      "dedicated-platform M_own runs shared by every strategy" );
    ("pipeline.schedule", "two-step schedule of one concurrent batch");
    ("pipeline.allocation", "beta determination + per-PTG allocation step");
    ("alloc.scrap", "one SCRAP(-MAX) allocation loop over one PTG");
    ("alloc.cache", "one cached allocation lookup (hit/rescale/miss)");
    ("mapper.run", "concurrent list mapping of one application batch");
    ("mapper.prepare", "mapper state setup: topo ranks, bottom levels");
    ("mapper.place", "placement of one ready task (search over clusters)");
    ("mapper.packing", "allocation-packing search of one task placement");
    ("check.analyze", "invariant analyzer pass over one schedule set");
    ("sim.replay", "discrete-event replay of a schedule set");
    ("online.run", "one full online-engine run in virtual time");
    ("online.event", "handling of one online event");
    ("online.reschedule", "one rescheduling generation (beta + remap)");
    ("online.fault", "handling of one fault event (outage/recovery/failure)");
    ("online.resize", "one malleable resize opportunity (grow/shrink/skip)");
    ("serve.run", "one full service run (stream submission + drain)");
    ("serve.pickup", "one shard mailbox drain: shed + inject a batch");
    ("serve.step", "one shard engine advance up to the watermark");
  ]

let counters =
  [
    ("alloc.calls", "SCRAP(-MAX) allocation procedures run");
    ("alloc.increments", "+1-processor increments across allocation loops");
    ( "alloc.cache.hits",
      "cached allocations served as-is (same cap, budget and stop power)" );
    ( "alloc.cache.rescales",
      "cached trajectories replayed under a moved beta or cap" );
    ("alloc.cache.misses", "cache lookups that fell back to a scratch run");
    ("mapper.tasks_mapped", "task placements committed by the list mapper");
    ( "mapper.packing_attempts",
      "shrunk widths considered, including those the start bound ruled out" );
    ( "mapper.packing_wins",
      "placements won by a width below the full one priced on their cluster"
    );
    ( "mapper.candidates_priced",
      "(cluster, width) candidates priced, full and packing widths" );
    ("mapper.ready_peak", "high-water mark of the ready-task queue");
    ( "mapper.avail_reorders",
      "processor entries repositioned in the availability index" );
    ("mapper.backfill_slots", "reservation holes found by Timeline.find_slot");
    ("online.events", "events handled by the online engine");
    ("online.reschedules", "rescheduling generations across engine runs");
    ("online.remapped", "placements recomputed by online reschedules");
    ( "online.remap_unchanged",
      "remapped placements identical to the previous generation's \
       (counted while tracing only)" );
    ("online.kills", "running attempts killed by processor outages");
    ("online.retries", "transient task failures (each costs one retry)");
    ("online.fault_events", "outage/recovery events processed");
    ("online.resizes", "malleable grow/shrink operations executed");
    ( "mapper.release",
      "processors released by kills and resizes under fault injection" );
    ("sim.updates", "max-min rate recomputations run by replays");
    ("sim.rounds", "progressive-filling rounds across those recomputations");
    ("sim.links_visited", "links scanned for a share across those rounds");
    ("sim.flows", "network flows created by replays");
    ("sim.events", "events acted on by replays");
    ("check.analyses", "invariant analyzer passes");
    ("check.rules", "rules evaluated across analyzer passes");
    ("check.diagnostics", "diagnostics emitted by the analyzer");
    ("serve.submitted", "submissions offered to the serving engine");
    ("serve.admitted", "submissions accepted by admission control");
    ("serve.rejected", "submissions refused (queue full, Reject policy)");
    ("serve.handoffs", "submissions shed to a peer shard");
    ("serve.injected", "submissions injected into shard engine sessions");
    ("serve.queue_peak", "high-water mark of any shard mailbox");
    ("serve.active_peak", "high-water mark of any shard's active set");
  ]

let phase_names = List.map fst phases
let counter_names = List.map fst counters

let describe name =
  match List.assoc_opt name phases with
  | Some d -> Some d
  | None -> List.assoc_opt name counters
