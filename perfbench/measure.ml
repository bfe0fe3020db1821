(* One benchmark run of one workload: the end-to-end metrics from
   untraced units, or the per-layer metrics from a traced pass.

   Costs are process CPU time, summed over all domains: another tenant
   taking a core doubles the wall time of the two-domain service but
   not its CPU time. What CPU time still picks up from the machine —
   a neighbour's cache and memory traffic, a slower clock — moved it by
   up to 40% between runs minutes apart on a shared 2-core host. So the
   run also times a fixed reference computation, independent of the
   libraries under test, around every input cycle, and rescales each
   unit's set-up and run costs to the reference's nominal speed. Over
   ten seeds of 15 s runs on such a host, the spread of serve-steady's
   median cost was 11.6% raw, 8.1% rescaled by the run's median
   reference time, and 5.0% rescaled unit by unit. Wall-clock
   throughput and the parallelism it implies are per-layer metrics. *)

module Obs = Mcs_obs.Obs
module Export = Mcs_obs.Export
module Names = Mcs_obs.Names
module W = Workloads
module Int_map = Map.Make (Int)

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  table : string list;  (** trace only: where the traced time went *)
}

let percentile values p = Mcs_serve.Stats.percentile (Array.of_list values) ~p
let median values = percentile values 0.5
let sum f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let ratio a b = if b = 0. then 0. else a /. b
let mib words = words *. float_of_int (Sys.word_size / 8) /. 1048576.
let heap_mib () = mib (float_of_int (Gc.quick_stat ()).Gc.top_heap_words)
let metric name value unit_ = { name; value; unit_ }

(* The reference computation: ordered-map inserts, a float sort and
   hash-table updates, the same mix of allocation and pointer chasing
   as the schedulers. Returns its CPU time. *)
let reference () =
  let (), t =
    W.timed (fun () ->
        let rng = Random.State.make [| 42 |] in
        let map = ref Int_map.empty in
        for i = 1 to 60_000 do
          map := Int_map.add (Random.State.int rng 1_000_000) i !map
        done;
        let sorted =
          List.sort Float.compare
            (List.init 60_000 (fun _ -> Random.State.float rng 1.))
        in
        let tbl = Hashtbl.create 16 in
        List.iteri
          (fun i x -> Hashtbl.replace tbl (int_of_float (x *. 1e6)) i)
          sorted;
        ignore (Sys.opaque_identity (Int_map.cardinal !map + Hashtbl.length tbl)))
  in
  t.W.cpu

(* CPU seconds of [reference ()] on a quiet 2-core x86 machine. *)
let reference_s = 0.07

(* Unit 0 under the invariant checker: an audit of the scheduler's
   output that also warms the caches before anything is timed. A timed
   or traced unit 0 must reproduce its digest exactly. *)
let audit (w : W.t) o ~seed = w.W.run_unit { o with W.check = true } ~seed 0

let verdict (audit : W.outcome) (outs : W.outcome list) =
  ( audit.W.failed = 0 && (List.hd outs).W.digest = audit.W.digest,
    List.fold_left (fun n u -> n + u.W.attempted) 0 outs,
    List.fold_left (fun n u -> n + u.W.failed) 0 outs )

(* Units 0 .. n-1, each with the speed of the machine while it ran: the
   reference is timed before every input cycle and after the last, and
   a unit's speed is the nominal reference time over the mean of the
   two timings around its cycle. The reference's garbage is collected
   before the next unit's set-up is timed. *)
let run_units (w : W.t) o ~seed n =
  let reference () =
    let t = reference () in
    Gc.full_major ();
    t
  in
  let rec cycles first before =
    if first >= n then []
    else
      let outs =
        List.init (min w.W.cycle (n - first)) (fun i ->
            w.W.run_unit o ~seed (first + i))
      in
      let after = reference () in
      let speed = reference_s /. ((before +. after) /. 2.) in
      List.map (fun u -> (u, speed)) outs @ cycles (first + w.W.cycle) after
  in
  cycles 0 (reference ())

(* ---------- end-to-end ---------- *)

let end_to_end (w : W.t) o ~seed ~seconds =
  let audit = audit w o ~seed in
  let units = run_units w o ~seed (W.units w ~seconds) in
  let outs = List.map fst units in
  let correct, attempted, failed = verdict audit outs in
  let responses =
    Array.to_list (Array.concat (List.map (fun u -> u.W.responses) outs))
  in
  let setup_s ((u : W.outcome), speed) =
    speed *. (u.W.gen.W.cpu +. u.W.create.W.cpu)
  in
  let cost_ms ((u : W.outcome), speed) =
    1e3 *. speed *. u.W.run.W.cpu /. float_of_int u.W.apps
  in
  {
    correct;
    attempted;
    failed;
    metrics =
      [
        metric "setup_s" (median (List.map setup_s units)) "s";
        metric "app_cost_ms" (median (List.map cost_ms units)) "ms";
        metric "response_p50_s" (percentile responses 0.5) "s";
        metric "response_p90_s" (percentile responses 0.9) "s";
        metric "retained_mib"
          (median
             (List.map (fun u -> mib (float_of_int u.W.retained_words)) outs))
          "MiB";
      ];
    table = [];
  }

(* ---------- per-layer ---------- *)

(* Library phases reported as shares of the traced wall time, in
   pipeline order. Phases that never take a measurable share on any
   workload (serve.pickup, serve.step, online.event, and the offline
   wrappers around the pipeline) appear in the trace table only. *)
let phases =
  [
    "online.run"; "online.reschedule"; "online.fault"; "online.resize";
    "pipeline.allocation"; "alloc.cache"; "alloc.scrap"; "mapper.run";
    "mapper.prepare"; "mapper.place"; "mapper.packing"; "sim.replay";
    "check.analyze";
  ]

(* Library counters reported as totals over the traced units. Those
   that only feed a reported ratio are left out. *)
let counters =
  [
    "mapper.avail_reorders"; "alloc.increments"; "online.reschedules";
    "online.kills"; "mapper.release";
  ]

(* A scheduling decision: one β + allocation + mapping generation. *)
let decision_spans = [ "online.reschedule"; "pipeline.schedule" ]

(* The durations of the decisions among [spans]. Offline, the
   single-application schedules inside "runner.baselines" are not
   decisions of the concurrent scheduler and have no checker pass, so
   they are left out. *)
let decisions spans =
  let baselines =
    List.filter (fun (s : Obs.span) -> s.Obs.name = "runner.baselines") spans
  in
  let inside (s : Obs.span) (b : Obs.span) =
    b.Obs.depth < s.Obs.depth
    && b.Obs.start_s <= s.Obs.start_s
    && s.Obs.start_s < b.Obs.start_s +. b.Obs.dur_s
  in
  List.filter_map
    (fun (s : Obs.span) ->
      if
        List.mem s.Obs.name decision_spans
        && not (List.exists (inside s) baselines)
      then Some s.Obs.dur_s
      else None)
    spans

(* End-to-end metrics that depend on the seed and the run length only:
   any change to them between two runs of the same inputs counts. *)
let exact = [ "response_p50_s"; "response_p90_s" ]

type trace = {
  self : (string, float) Hashtbl.t;
  calls : (string, int) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
  mutable decisions : float list;
  mutable wall : float;  (** summed "bench.run" span durations *)
}

let get tbl key ~default = Option.value (Hashtbl.find_opt tbl key) ~default

let record tr =
  List.iter
    (fun (r : Export.row) ->
      if r.Export.phase = "bench.run" then tr.wall <- tr.wall +. r.Export.total_s;
      Hashtbl.replace tr.self r.Export.phase
        (get tr.self r.Export.phase ~default:0. +. r.Export.self_s);
      Hashtbl.replace tr.calls r.Export.phase
        (get tr.calls r.Export.phase ~default:0 + r.Export.calls))
    (Export.profile_rows ());
  List.iter
    (fun (name, v) ->
      Hashtbl.replace tr.counts name (get tr.counts name ~default:0 + v))
    (Obs.counter_values ());
  tr.decisions <- decisions (Obs.spans ()) @ tr.decisions

let traced_unit (w : W.t) o ~seed tr k =
  Obs.enable ();
  let u = Fun.protect ~finally:Obs.disable (fun () -> w.W.run_unit o ~seed k) in
  record tr;
  u

let layers (w : W.t) o ~seed ~seconds =
  let audit = audit w o ~seed in
  (* Spans from domains other than the recorder's owner are dropped, so
     a multi-domain workload is traced on one domain, and its own mode
     gets an untraced pass of its own for the wall-clock figures. *)
  let passes = if w.W.multi_domain then 3 else 2 in
  let n = max 1 (W.units w ~seconds / passes) in
  let pass o = List.init n (w.W.run_unit o ~seed) in
  let domains = if w.W.multi_domain then Some (pass o) else None in
  let o = { o with W.inline = true } in
  let plain = pass o in
  let own = Option.value domains ~default:plain in
  let untraced_heap = heap_mib () in
  let tr =
    {
      self = Hashtbl.create 32;
      calls = Hashtbl.create 32;
      counts = Hashtbl.create 32;
      decisions = [];
      wall = 0.;
    }
  in
  let traced = List.init n (traced_unit w o ~seed tr) in
  let correct, attempted, failed = verdict audit traced in
  let correct = correct && (List.hd plain).W.digest = audit.W.digest in
  let count name = float_of_int (get tr.counts name ~default:0) in
  let calls name = float_of_int (get tr.calls name ~default:0) in
  let self name = get tr.self name ~default:0. in
  let library_self = sum self Names.phase_names in
  let wall = tr.wall in
  let cpu outs = sum (fun u -> u.W.run.W.cpu) outs in
  let own_wall = sum (fun u -> u.W.run.W.wall) own in
  let overhead = ratio (cpu traced) (cpu plain) -. 1. in
  let all = own @ plain @ traced in
  let metrics =
    [
      metric "trace_overhead" overhead "ratio";
      metric "unattributed_frac" (1. -. ratio library_self wall) "fraction";
      metric "wall_apps_per_s"
        (median
           (List.map (fun u -> float_of_int u.W.apps /. u.W.run.W.wall) own))
        "1/s";
      metric "parallelism" (ratio (cpu own) own_wall) "ratio";
      metric "heap_peak_mib" untraced_heap "MiB";
      metric "setup.gen_s" (median (List.map (fun u -> u.W.gen.W.cpu) all)) "s";
      metric "setup.create_s"
        (median (List.map (fun u -> u.W.create.W.cpu) all))
        "s";
      metric "decide_p50_ms" (1e3 *. percentile tr.decisions 0.5) "ms";
      metric "decide_p90_ms" (1e3 *. percentile tr.decisions 0.9) "ms";
      metric "serve.submit_wait_frac"
        (ratio (sum (fun u -> u.W.submit_s) own) own_wall)
        "fraction";
    ]
    @ List.map
        (fun p -> metric (p ^ ".self_frac") (ratio (self p) wall) "fraction")
        phases
    @ List.map (fun c -> metric c (count c) "count") counters
    @ [
        metric "mapper.packing_win_ratio"
          (ratio (count "mapper.packing_wins") (count "mapper.packing_attempts"))
          "ratio";
        metric "alloc.cache.served_ratio"
          (let served =
             count "alloc.cache.hits" +. count "alloc.cache.rescales"
           in
           ratio served (served +. count "alloc.cache.misses"))
          "ratio";
        metric "online.remap_per_resched"
          (ratio (count "online.remapped") (count "online.reschedules"))
          "ratio";
        metric "online.resize_exec_ratio"
          (ratio (count "online.resizes") (calls "online.resize"))
          "ratio";
      ]
  in
  let rows =
    List.sort
      (fun (_, a) (_, b) -> Float.compare b a)
      (List.filter
         (fun (_, s) -> s > 0.)
         (List.map (fun p -> (p, self p)) Names.phase_names))
  in
  let line name s =
    Printf.sprintf "  %-22s %9.3f %6.1f%%" name s (100. *. ratio s wall)
  in
  let table =
    Printf.sprintf
      "%s: %d traced unit(s)%s, %.3f s traced, overhead %+.1f%%, heap %.1f MiB"
      w.W.name n
      (if w.W.multi_domain then " on one domain" else "")
      wall (100. *. overhead) (heap_mib ())
    :: Printf.sprintf "  %-22s %9s %7s" "phase" "self_s" "share"
    :: List.map (fun (p, s) -> line p s) rows
    @ [ line "unattributed" (wall -. library_self) ]
  in
  { correct; attempted; failed; metrics; table }

let run (w : W.t) o ~seed ~seconds ~trace =
  if trace then layers w o ~seed ~seconds else end_to_end w o ~seed ~seconds
