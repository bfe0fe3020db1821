(* Sharded serving engine: shard-1 bit-equivalence with Engine.run,
   deterministic replay under domain interleaving, queue-full semantics
   (block and reject, never a silent drop), shedding conservation,
   partitioning and the small pure helpers. *)

module Grid5000 = Mcs_platform.Grid5000
module P = Mcs_platform.Platform
module Prng = Mcs_prng.Prng
module Ptg = Mcs_ptg.Ptg
module Schedule = Mcs_sched.Schedule
module Strategy = Mcs_sched.Strategy
module Engine = Mcs_online.Engine
module Policy = Mcs_online.Policy
open Mcs_serve

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

let policy = Policy.make Strategy.Equal_share

let config ~shards ~mode =
  {
    Service.default_config with
    Service.shards;
    mode;
    policy;
    capture_logs = true;
    check = true;
  }

(* --- squeue ------------------------------------------------------- *)

let test_squeue () =
  let q = Squeue.create ~capacity:2 in
  Alcotest.(check bool) "accept 1" true (Squeue.push q ~block:false 1 = Squeue.Accepted);
  Alcotest.(check bool) "accept 2" true (Squeue.push q ~block:false 2 = Squeue.Accepted);
  Alcotest.(check bool) "full" true (Squeue.push q ~block:false 3 = Squeue.Full);
  Squeue.push_unbounded q 4;
  Alcotest.(check int) "unbounded ignores capacity" 3 (Squeue.length q);
  Squeue.advance_watermark q 7.5;
  let b = Squeue.drain q in
  Alcotest.(check (list int)) "drain order" [ 1; 2; 4 ] b.Squeue.msgs;
  Alcotest.(check (float 0.)) "watermark" 7.5 b.Squeue.watermark;
  Alcotest.(check bool) "not closed" false b.Squeue.closed;
  Squeue.advance_watermark q 3.;
  Alcotest.(check (float 0.)) "watermark is monotone" 7.5
    (Squeue.drain q).Squeue.watermark;
  Squeue.close q;
  Alcotest.(check bool) "closed refuses" true
    (Squeue.push q ~block:true 5 = Squeue.Closed);
  Alcotest.(check bool) "drain reports closed" true (Squeue.drain q).Squeue.closed;
  Alcotest.(check int) "peak" 3 (Squeue.peak q);
  Alcotest.(check int) "pushed" 3 (Squeue.pushed q);
  Alcotest.check_raises "capacity < 1"
    (Invalid_argument "Squeue.create: capacity < 1") (fun () ->
      ignore (Squeue.create ~capacity:0))

let test_squeue_blocking () =
  (* A full queue blocks the producer until the consumer drains. *)
  let q = Squeue.create ~capacity:1 in
  ignore (Squeue.push q ~block:false 0);
  let consumer =
    Domain.spawn (fun () ->
        let drained = ref [] in
        while List.length !drained < 3 do
          let b = Squeue.wait_batch q ~seen:Float.neg_infinity in
          drained := !drained @ b.Squeue.msgs
        done;
        !drained)
  in
  ignore (Squeue.push q ~block:true 1);
  ignore (Squeue.push q ~block:true 2);
  Alcotest.(check (list int)) "all delivered in order" [ 0; 1; 2 ]
    (Domain.join consumer)

let test_squeue_watermark_wakeup () =
  (* Two consumers block on different [seen] thresholds. A watermark
     advance that only clears the lower threshold must wake that
     consumer even if the scheduler would have handed a single signal
     to the other one — i.e. advance_watermark must broadcast. With
     [Condition.signal] this test hangs (the wakeup can land on the
     seen=10 waiter, which re-blocks, stranding the seen=0 one). *)
  let q = Squeue.create ~capacity:4 in
  let low_woke = Atomic.make false in
  let low =
    Domain.spawn (fun () ->
        let b = Squeue.wait_batch q ~seen:0. in
        (* Not a read-modify-write: the consumer only ever sets, the
           poll below only ever gets. *)
        (Atomic.set low_woke true) [@atomic_ok];
        b)
  in
  let high =
    Domain.spawn (fun () -> Squeue.wait_batch q ~seen:10.)
  in
  (* Let both consumers reach their wait; the queue stays empty so
     neither can return before a watermark moves. *)
  Unix.sleepf 0.05;
  Squeue.advance_watermark q 5.;
  (* Bounded poll: fail the test rather than hang forever. *)
  let deadline = Unix.gettimeofday () +. 5. in
  while (not (Atomic.get low_woke)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  Alcotest.(check bool) "seen=0 consumer woken by watermark 5" true
    (Atomic.get low_woke);
  let b_low = Domain.join low in
  Alcotest.(check (float 0.)) "low saw the advance" 5.
    b_low.Squeue.watermark;
  (* The high-threshold consumer is still blocked (5 <= 10): close
     releases it and reports closed. *)
  Squeue.close q;
  let b_high = Domain.join high in
  Alcotest.(check bool) "high released by close" true b_high.Squeue.closed

(* --- admission / router / stats ----------------------------------- *)

let test_admission () =
  Admission.validate Admission.default;
  let a = { Admission.default with Admission.batch_window = 5. } in
  Alcotest.(check (float 0.)) "quantize up" 5. (Admission.quantize a 3.2);
  Alcotest.(check (float 0.)) "boundary stays" 10. (Admission.quantize a 10.);
  Alcotest.(check (float 0.)) "window 0 is exact" 3.2
    (Admission.quantize Admission.default 3.2);
  Alcotest.(check bool) "never below release" true
    (Admission.quantize a 1e-9 >= 1e-9);
  Alcotest.check_raises "bad window"
    (Invalid_argument "Admission.validate: ill-formed batch_window")
    (fun () ->
      Admission.validate { Admission.default with Admission.batch_window = -1. })

let test_router () =
  let r = Router.create Router.Round_robin ~shards:3 in
  Alcotest.(check (list int)) "rr cycles" [ 0; 1; 2; 0 ]
    (List.map (fun _ -> Router.route r ~work:1.) [ (); (); (); () ]);
  let r = Router.create Router.Least_work ~shards:2 in
  let k1 = Router.route r ~work:10. in
  let k2 = Router.route r ~work:1. in
  let k3 = Router.route r ~work:1. in
  Alcotest.(check int) "first to shard 0" 0 k1;
  Alcotest.(check int) "second to the lighter shard" 1 k2;
  Alcotest.(check int) "third still lighter" 1 k3;
  Alcotest.(check (array (float 0.))) "work accounted" [| 10.; 2. |]
    (Router.assigned r)

let test_stats () =
  let v = [| 5.; 1.; Float.nan; 3.; 2.; 4. |] in
  Alcotest.(check (float 0.)) "median" 3. (Stats.percentile v ~p:0.5);
  Alcotest.(check (float 0.)) "p99 = max here" 5. (Stats.percentile v ~p:0.99);
  Alcotest.(check (float 0.)) "p0 clamps to min" 1. (Stats.percentile v ~p:0.);
  Alcotest.(check bool) "empty is nan" true
    (Float.is_nan (Stats.percentile [| Float.nan |] ~p:0.5))

(* --- partitioning -------------------------------------------------- *)

let test_partition () =
  let grid = Grid5000.grid () in
  let parts = Shard.partition grid ~shards:4 in
  Alcotest.(check int) "four shards" 4 (Array.length parts);
  let seen = Array.make (P.cluster_count grid) false in
  Array.iter
    (fun (sub, clusters) ->
      Alcotest.(check int) "sub-platform matches its cluster list"
        (Array.length clusters) (P.cluster_count sub);
      Array.iteri
        (fun j ci ->
          Alcotest.(check bool) "disjoint" false seen.(ci);
          seen.(ci) <- true;
          let c = P.cluster grid ci and s = P.cluster sub j in
          Alcotest.(check string) "cluster kept" c.P.cluster_name
            s.P.cluster_name)
        clusters)
    parts;
  Alcotest.(check bool) "cover" true (Array.for_all Fun.id seen);
  let powers =
    Array.map (fun (sub, _) -> P.total_power sub) parts
  in
  let lo = Array.fold_left Float.min infinity powers in
  let hi = Array.fold_left Float.max 0. powers in
  Alcotest.(check bool) "greedy balance within 2x" true (hi < 2. *. lo);
  (* One shard reproduces the platform cluster-for-cluster. *)
  (match Shard.partition grid ~shards:1 with
  | [| (sub, clusters) |] ->
    Alcotest.(check int) "identity cover" (P.cluster_count grid)
      (Array.length clusters);
    Alcotest.(check bool) "identity clusters" true
      (P.clusters sub = P.clusters grid)
  | _ -> Alcotest.fail "expected one shard");
  Alcotest.check_raises "too many shards"
    (Invalid_argument "Shard.partition: 12 shards for 11 clusters") (fun () ->
      ignore (Shard.partition grid ~shards:12))

(* --- shard-1 equivalence ------------------------------------------- *)

let responses_identical msg a b =
  Alcotest.(check int) (msg ^ ": count") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: response %d bit-identical" msg i)
        true
        (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float b.(i))))
    a

let test_shard1_bit_identical () =
  let platform = Grid5000.rennes () in
  let apps = workload 8 11 ~mean:20. in
  let reference = Engine.run ~policy platform apps in
  (* Exact admission, one shard: both with the default roomy mailbox
     (all injection at close) and with a tiny one (pickups mid-stream,
     exercising the watermark protocol). *)
  List.iter
    (fun capacity ->
      let cfg = config ~shards:1 ~mode:Service.Inline in
      let cfg =
        {
          cfg with
          Service.admission =
            { cfg.Service.admission with Admission.capacity };
        }
      in
      let msg = Printf.sprintf "capacity %d" capacity in
      let r = Service.run_stream cfg platform apps in
      Alcotest.(check int) (msg ^ ": all admitted") (List.length apps)
        r.Service.admitted;
      Alcotest.(check int) (msg ^ ": no violations") 0 r.Service.violations;
      responses_identical msg reference.Engine.responses r.Service.responses;
      (match r.Service.shards with
      | [| shard |] ->
        List.iteri
          (fun i (e, g) ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: app %d schedule identical" msg i)
              true
              (e.Schedule.placements = g.Schedule.placements))
          (List.combine reference.Engine.schedules
             shard.Shard.engine.Engine.schedules);
        Alcotest.(check int) (msg ^ ": same event count")
          reference.Engine.stats.Engine.events_processed
          shard.Shard.engine.Engine.stats.Engine.events_processed;
        Alcotest.(check int) (msg ^ ": same reschedules")
          reference.Engine.stats.Engine.reschedules
          shard.Shard.engine.Engine.stats.Engine.reschedules
      | _ -> Alcotest.fail "expected one shard"))
    [ 1024; 3 ]

(* --- deterministic replay ------------------------------------------ *)

let test_deterministic_replay () =
  (* Same stream, three executions: two multi-domain runs (different
     interleavings) and the inline fallback. Merged logs and response
     vectors must match bit for bit: each shard's outcome is a pure
     function of its own sub-stream, and the merge order is
     interleaving-independent. *)
  let platform = Grid5000.grid () in
  let apps = workload 30 5 ~mean:2. in
  let cfg ~mode =
    let c = config ~shards:4 ~mode in
    {
      c with
      Service.admission =
        { c.Service.admission with Admission.batch_window = 10. };
    }
  in
  let r1 = Service.run_stream (cfg ~mode:Service.Domains) platform apps in
  let r2 = Service.run_stream (cfg ~mode:Service.Domains) platform apps in
  let r3 = Service.run_stream (cfg ~mode:Service.Inline) platform apps in
  Alcotest.(check int) "no violations" 0
    (r1.Service.violations + r2.Service.violations + r3.Service.violations);
  responses_identical "domains vs domains" r1.Service.responses
    r2.Service.responses;
  responses_identical "domains vs inline" r1.Service.responses
    r3.Service.responses;
  let l1 = Service.merged_log r1
  and l2 = Service.merged_log r2
  and l3 = Service.merged_log r3 in
  Alcotest.(check bool) "log nonempty" true (l1 <> []);
  Alcotest.(check bool) "merged logs equal (domains)" true (l1 = l2);
  Alcotest.(check bool) "merged logs equal (inline)" true (l1 = l3)

(* --- crash recovery ------------------------------------------------ *)

let test_kill_restore_bit_identical () =
  (* Scripted crash drill: shard 1's domain dies right after its 5th
     injection, the service joins the corpse, restores the shard from
     the snapshot of its fresh session (re-submitting the journal at the
     recorded admission instants) and respawns it. The bar is total
     transparency: merged log, response vector and checker verdict all
     bit-identical to the run that never crashed. *)
  let platform = Grid5000.grid () in
  let apps = workload 40 13 ~mean:2. in
  let cfg ~kill =
    let c = config ~shards:4 ~mode:Service.Domains in
    {
      c with
      Service.admission =
        { c.Service.admission with Admission.batch_window = 5. };
      Service.kill;
    }
  in
  let base = Service.run_stream (cfg ~kill:None) platform apps in
  let killed = Service.run_stream (cfg ~kill:(Some (1, 5))) platform apps in
  Alcotest.(check int) "no violations" 0
    (base.Service.violations + killed.Service.violations);
  Alcotest.(check int) "crash-free run never restores" 0
    base.Service.restores;
  Alcotest.(check int) "exactly one restore" 1 killed.Service.restores;
  responses_identical "killed vs crash-free" base.Service.responses
    killed.Service.responses;
  let lb = Service.merged_log base and lk = Service.merged_log killed in
  Alcotest.(check bool) "log nonempty" true (lb <> []);
  Alcotest.(check bool) "merged logs bit-identical" true (lb = lk)

(* Inline mode has no serving domain to kill: a drill is refused, not
   silently skipped. *)
let test_kill_refused_inline () =
  let cfg =
    {
      (config ~shards:2 ~mode:Service.Inline) with
      Service.kill = Some (1, 10);
    }
  in
  let message = "Service.create: a kill drill needs Domains mode" in
  Alcotest.check_raises "inline kill" (Invalid_argument message) (fun () ->
      ignore (Service.create cfg (Grid5000.lille ())))

(* --- queue-full semantics ------------------------------------------ *)

let test_reject_never_drops () =
  let platform = Grid5000.lille () in
  let apps = workload 12 3 ~mean:1. in
  let cfg = config ~shards:2 ~mode:Service.Inline in
  let cfg =
    {
      cfg with
      Service.admission =
        {
          Admission.capacity = 2;
          on_full = Admission.Reject;
          shed_above = None;
          batch_window = 0.;
        };
    }
  in
  let r = Service.run_stream cfg platform apps in
  Alcotest.(check int) "conservation" r.Service.submitted
    (r.Service.admitted + r.Service.rejected);
  Alcotest.(check bool) "some rejected" true (r.Service.rejected > 0);
  Alcotest.(check bool) "some admitted" true (r.Service.admitted > 0);
  let injected =
    Array.fold_left
      (fun acc s -> acc + Array.length s.Shard.global_ids)
      0 r.Service.shards
  in
  Alcotest.(check int) "every admitted app injected exactly once"
    r.Service.admitted injected;
  (* Rejected submissions answer nan, admitted ones a finite response. *)
  let finite =
    Array.fold_left
      (fun acc x -> if Float.is_finite x then acc + 1 else acc)
      0 r.Service.responses
  in
  Alcotest.(check int) "finite responses = admitted" r.Service.admitted finite

let test_block_admits_everything () =
  let platform = Grid5000.lille () in
  let apps = workload 12 4 ~mean:1. in
  List.iter
    (fun mode ->
      let cfg = config ~shards:2 ~mode in
      let cfg =
        {
          cfg with
          Service.admission =
            { cfg.Service.admission with Admission.capacity = 2 };
        }
      in
      let r = Service.run_stream cfg platform apps in
      Alcotest.(check int) "everything admitted" (List.length apps)
        r.Service.admitted;
      Alcotest.(check int) "nothing rejected" 0 r.Service.rejected;
      Alcotest.(check int) "no violations" 0 r.Service.violations;
      Array.iter
        (fun x -> Alcotest.(check bool) "every response finite" true
            (Float.is_finite x))
        r.Service.responses)
    [ Service.Inline; Service.Domains ]

(* --- shedding ------------------------------------------------------ *)

(* Two inputs: four [Inline] shards, and two [Domains] shards where
   shard 1 dies at its third injection. In the second, every release
   lies within half a second, so nothing departs before the stream
   ends, and each shard sheds every message of its own but the first.
   At most one hand-off (shard 0's second message) can precede shard
   1's second message, so shard 1 sheds that message before it dies,
   and the restore must not forget it. *)
let test_shedding_conserves () =
  let platform = Grid5000.grid () in
  let shedding ~shards ~mode ~capacity ~shed_above =
    let cfg = config ~shards ~mode in
    {
      cfg with
      Service.router = Router.Round_robin;
      Service.admission =
        {
          Admission.capacity;
          on_full = Admission.Block;
          shed_above = Some shed_above;
          batch_window = 0.;
        };
    }
  in
  List.iter
    (fun (name, cfg, apps, rate, restores) ->
      let r = Service.run_stream ~rate cfg platform apps in
      let check what = Alcotest.(check int) (name ^ ": " ^ what) in
      Alcotest.(check bool)
        (name ^ ": hand-offs happened") true (r.Service.handoffs > 0);
      check "no violations" 0 r.Service.violations;
      check "restores" restores r.Service.restores;
      let sum f = Array.fold_left (fun acc s -> acc + f s) 0 r.Service.shards in
      check "conservation across hand-offs" r.Service.admitted
        (sum (fun s -> Array.length s.Shard.global_ids));
      check "every hand-off received"
        (sum (fun s -> s.Shard.handoffs_out))
        (sum (fun s -> s.Shard.handoffs_in));
      (* Every submission answered: the hand-off path loses nothing. *)
      Array.iter
        (fun x ->
          Alcotest.(check bool) (name ^ ": response finite") true
            (Float.is_finite x))
        r.Service.responses)
    [
      ( "inline",
        (* tiny mailboxes force mid-stream pickups *)
        shedding ~shards:4 ~mode:Service.Inline ~capacity:2 ~shed_above:2,
        workload 24 9 ~mean:1.,
        0.,
        0 );
      ( "domains, shard 1 killed",
        {
          (shedding ~shards:2 ~mode:Service.Domains ~capacity:1024
             ~shed_above:1)
          with
          Service.kill = Some (1, 3);
        },
        workload 40 9 ~mean:0.01,
        200.,
        1 );
    ]

(* --- API misuse ----------------------------------------------------- *)

let test_submit_ordering () =
  let platform = Grid5000.lille () in
  let t = Service.create (config ~shards:1 ~mode:Service.Inline) platform in
  let ptg = List.hd (random_ptgs 1 0) in
  ignore (Service.submit t ptg ~release:5.);
  Alcotest.check_raises "decreasing release"
    (Invalid_argument "Service.submit: releases must be nondecreasing")
    (fun () -> ignore (Service.submit t ptg ~release:4.));
  ignore (Service.submit t ptg ~release:5.);
  let r = Service.close t in
  Alcotest.(check int) "both served" 2 r.Service.admitted;
  Alcotest.check_raises "submit after close"
    (Invalid_argument "Service.submit: closed") (fun () ->
      ignore (Service.submit t ptg ~release:9.));
  Alcotest.check_raises "double close"
    (Invalid_argument "Service.close: already closed") (fun () ->
      ignore (Service.close t))

(* A negative or NaN pacing rate is refused before any shard starts;
   an infinite one does not pace. *)
let test_rate () =
  let platform = Grid5000.lille () in
  let cfg = config ~shards:1 ~mode:Service.Inline in
  let apps = workload 2 4 ~mean:5. in
  List.iter
    (fun rate ->
      let message = Printf.sprintf "Service.run_stream: rate = %g" rate in
      Alcotest.check_raises message (Invalid_argument message) (fun () ->
          ignore (Service.run_stream ~rate cfg platform apps)))
    [ -1.; Float.nan ];
  let r = Service.run_stream ~rate:Float.infinity cfg platform apps in
  Alcotest.(check int) "both served" 2 r.Service.admitted

let suite =
  [
    ( "serve",
      [
        Alcotest.test_case "squeue bounded mailbox" `Quick test_squeue;
        Alcotest.test_case "squeue producer backpressure" `Quick
          test_squeue_blocking;
        Alcotest.test_case "squeue watermark wakes the right consumer" `Quick
          test_squeue_watermark_wakeup;
        Alcotest.test_case "admission quantisation" `Quick test_admission;
        Alcotest.test_case "router policies" `Quick test_router;
        Alcotest.test_case "percentiles" `Quick test_stats;
        Alcotest.test_case "platform partitioning" `Quick test_partition;
        Alcotest.test_case "shard-1 inline = Engine.run, bit for bit" `Quick
          test_shard1_bit_identical;
        Alcotest.test_case "deterministic replay across interleavings" `Quick
          test_deterministic_replay;
        Alcotest.test_case "kill → restore is bit-identical" `Quick
          test_kill_restore_bit_identical;
        Alcotest.test_case "kill drill refused inline" `Quick
          test_kill_refused_inline;
        Alcotest.test_case "reject: explicit, never silent" `Quick
          test_reject_never_drops;
        Alcotest.test_case "block: backpressure admits everything" `Quick
          test_block_admits_everything;
        Alcotest.test_case "shedding conserves submissions" `Quick
          test_shedding_conserves;
        Alcotest.test_case "submission ordering contract" `Quick
          test_submit_ordering;
        Alcotest.test_case "bad pacing rates raise" `Quick test_rate;
      ] );
  ]
