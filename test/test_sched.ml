module Platform = Mcs_platform.Platform
module Grid5000 = Mcs_platform.Grid5000
module Task = Mcs_taskmodel.Task
module Ptg = Mcs_ptg.Ptg
module Builder = Mcs_ptg.Builder
module Prng = Mcs_prng.Prng
module Obs = Mcs_obs.Obs
open Mcs_sched

let check_float = Alcotest.(check (float 1e-9))

let toy_platform ?(procs = 4) ?(gflops = 1.) () =
  Platform.make ~name:"toy"
    [ { Platform.cluster_name = "c0"; procs; gflops; switch = 0 } ]

let two_cluster_platform () =
  Platform.make ~name:"duo"
    [
      { Platform.cluster_name = "slow"; procs = 8; gflops = 1.; switch = 0 };
      { Platform.cluster_name = "fast"; procs = 4; gflops = 2.; switch = 0 };
    ]

let seconds_task ?(alpha = 0.) seconds =
  Task.make ~data:(seconds *. 1e9) ~complexity:(Stencil 1.) ~alpha

let chain ?(id = 0) ?(alpha = 0.) durations =
  let tasks = Array.of_list (List.map (seconds_task ~alpha) durations) in
  let edges =
    List.init (Array.length tasks - 1) (fun i -> (i, i + 1, 0.))
  in
  Builder.build ~id ~name:"chain" ~tasks ~edges

let random_ptg ?(tasks = 20) seed =
  let rng = Prng.create ~seed in
  Mcs_ptg.Random_gen.generate rng
    { Mcs_ptg.Random_gen.default with tasks }

(* ---------- Reference cluster ---------- *)

let test_ref_of_platform () =
  let p = two_cluster_platform () in
  let r = Reference_cluster.of_platform p in
  check_float "speed is slowest" 1. r.Reference_cluster.speed;
  (* total power 8*1 + 4*2 = 16 GFlop/s -> 16 reference processors. *)
  Alcotest.(check int) "procs" 16 r.Reference_cluster.procs

let test_ref_translate () =
  let p = two_cluster_platform () in
  let r = Reference_cluster.of_platform p in
  (* 4 reference procs at speed 1 = 4 procs on the slow cluster,
     2 on the fast one. *)
  Alcotest.(check int) "slow" 4 (Reference_cluster.translate r p ~cluster:0 4);
  Alcotest.(check int) "fast" 2 (Reference_cluster.translate r p ~cluster:1 4);
  (* At least one processor even for tiny allocations. *)
  Alcotest.(check int) "min one" 1 (Reference_cluster.translate r p ~cluster:1 1);
  (* Clamped to cluster size. *)
  Alcotest.(check int) "clamped" 8
    (Reference_cluster.translate r p ~cluster:0 100)

let test_ref_fits_and_max () =
  let p = two_cluster_platform () in
  let r = Reference_cluster.of_platform p in
  Alcotest.(check bool) "8 fits slow" true
    (Reference_cluster.fits r p ~cluster:0 8);
  Alcotest.(check bool) "9 does not fit slow" false
    (Reference_cluster.fits r p ~cluster:0 9);
  (* fast cluster: p_k=4, s_k=2: fits while round(p/2) <= 4, i.e., p <= 8. *)
  Alcotest.(check bool) "8 fits fast" true
    (Reference_cluster.fits r p ~cluster:1 8);
  let cap = Reference_cluster.max_allocation r p in
  Alcotest.(check bool) "cap fits somewhere" true
    (Reference_cluster.fits r p ~cluster:0 cap
    || Reference_cluster.fits r p ~cluster:1 cap);
  Alcotest.(check bool) "cap+1 fits nowhere" true
    (cap = r.Reference_cluster.procs
    || ((not (Reference_cluster.fits r p ~cluster:0 (cap + 1)))
       && not (Reference_cluster.fits r p ~cluster:1 (cap + 1))))

let test_ref_exec_time () =
  let r = Reference_cluster.make ~speed:2. ~procs:10 in
  let t = seconds_task ~alpha:0.5 10. in
  (* 1e10 flops at 2 GFlop/s = 5 s sequential; amdahl alpha .5, p=2:
     5*(0.5+0.25)=3.75 *)
  check_float "exec" 3.75 (Reference_cluster.exec_time r t ~procs:2);
  check_float "virtual is free" 0.
    (Reference_cluster.exec_time r Task.zero ~procs:5)

(* ---------- Allocation ---------- *)

(* ALLOC002's verdict on a SCRAP-MAX allocation: every precedence level
   within max(population, budget). *)
let level_share_ok r ~beta ptg procs =
  let ok = ref true in
  Mcs_check.Alloc_check.check_level_share
    ~emit:(fun _ -> ok := false)
    ~budget:(Allocation.budget_of r ~beta) ~beta ~dag:ptg.Ptg.dag
    ~is_virtual:(Ptg.is_virtual ptg) procs;
  !ok

let test_allocation_respects_beta_budget () =
  let p = toy_platform ~procs:10 () in
  let r = Reference_cluster.of_platform p in
  (* A fork of 4 parallel tasks; beta = 0.5 -> per-level budget 5. *)
  let tasks = Array.init 4 (fun _ -> seconds_task ~alpha:0.05 10.) in
  let ptg = Builder.build ~id:0 ~name:"fork4" ~tasks ~edges:[] in
  let result = Allocation.allocate r p ~beta:0.5 ptg in
  let usage = ref 0 in
  Array.iteri
    (fun v procs -> if not (Ptg.is_virtual ptg v) then usage := !usage + procs)
    result.Allocation.procs;
  Alcotest.(check bool) "level within budget" true (!usage <= 5);
  Alcotest.(check bool) "constraint check agrees" true
    (level_share_ok r ~beta:0.5 ptg result.Allocation.procs)

let test_allocation_selfish_uses_more () =
  let p = toy_platform ~procs:32 () in
  let r = Reference_cluster.of_platform p in
  let ptg = chain ~alpha:0.05 [ 50.; 50.; 50. ] in
  let constrained = Allocation.allocate r p ~beta:0.1 ptg in
  let selfish = Allocation.allocate r p ~beta:1.0 ptg in
  let total a = Array.fold_left ( + ) 0 a.Allocation.procs in
  Alcotest.(check bool)
    (Printf.sprintf "selfish %d > constrained %d" (total selfish)
       (total constrained))
    true
    (total selfish > total constrained);
  Alcotest.(check bool) "selfish cp shorter" true
    (selfish.Allocation.critical_path <= constrained.Allocation.critical_path)

let test_allocation_minimum_one_proc () =
  let p = toy_platform ~procs:100 () in
  let r = Reference_cluster.of_platform p in
  let ptg = random_ptg 42 in
  let result = Allocation.allocate r p ~beta:0.01 ptg in
  Array.iter
    (fun a -> Alcotest.(check bool) "at least 1" true (a >= 1))
    result.Allocation.procs

let test_allocation_reduces_critical_path () =
  let p = toy_platform ~procs:64 () in
  let r = Reference_cluster.of_platform p in
  let ptg = chain ~alpha:0.02 [ 100. ] in
  let result = Allocation.allocate r p ~beta:1. ptg in
  Alcotest.(check bool) "got more than one processor" true
    (Array.exists (fun a -> a > 1) result.Allocation.procs);
  Alcotest.(check bool) "cp below sequential" true
    (result.Allocation.critical_path < 100.)

let test_allocation_beta_validation () =
  let p = toy_platform () in
  let r = Reference_cluster.of_platform p in
  let ptg = chain [ 1. ] in
  List.iter
    (fun beta ->
      Alcotest.(check bool)
        (Printf.sprintf "beta=%g rejected" beta)
        true
        (try
           ignore (Allocation.allocate r p ~beta ptg);
           false
         with Invalid_argument _ -> true))
    [ 0.; -0.5; 1.5; Float.nan ]

let test_scrap_vs_scrap_max () =
  (* SCRAP has no per-level cap: on a wide level it may pack allocation
     into few tasks beyond the budget; SCRAP-MAX may not. *)
  let p = toy_platform ~procs:16 () in
  let r = Reference_cluster.of_platform p in
  let tasks = Array.init 2 (fun _ -> seconds_task ~alpha:0.01 100.) in
  let ptg = Builder.build ~id:0 ~name:"fork2" ~tasks ~edges:[] in
  let beta = 0.25 in
  (* budget = 4 *)
  let smax = Allocation.allocate ~procedure:Allocation.Scrap_max r p ~beta ptg in
  Alcotest.(check bool) "scrap-max within level budget" true
    (level_share_ok r ~beta ptg smax.Allocation.procs)

let qcheck_scrap_max_levels =
  QCheck.Test.make
    ~name:"SCRAP-MAX: per-level usage within budget on random PTGs"
    ~count:60
    QCheck.(pair (int_range 0 5000) (oneofl [ 0.1; 0.2; 0.5; 0.8; 1.0 ]))
    (fun (seed, beta) ->
      let p = Grid5000.lille () in
      let r = Reference_cluster.of_platform p in
      let ptg = random_ptg seed in
      let result = Allocation.allocate r p ~beta ptg in
      level_share_ok r ~beta ptg result.Allocation.procs)

let qcheck_allocation_capped =
  QCheck.Test.make
    ~name:"allocations never exceed the translatable maximum" ~count:40
    QCheck.(int_range 0 5000)
    (fun seed ->
      let p = Grid5000.sophia () in
      let r = Reference_cluster.of_platform p in
      let cap = Reference_cluster.max_allocation r p in
      let ptg = random_ptg seed in
      let result = Allocation.allocate r p ~beta:1. ptg in
      Array.for_all (fun a -> a >= 1 && a <= cap) result.Allocation.procs)

(* ---------- Allocation cache ---------- *)

(* The cache's contract is bit-identity: every field of a served result
   must equal a scratch run's float for float, whichever of the
   hit/rescale/fork/scratch paths produced it. *)
let check_alloc_equal msg (scratch : Allocation.result)
    (cached : Allocation.result) =
  Alcotest.(check (array int))
    (msg ^ ": procs") scratch.Allocation.procs cached.Allocation.procs;
  Alcotest.(check int)
    (msg ^ ": iterations") scratch.Allocation.iterations
    cached.Allocation.iterations;
  Alcotest.(check bool)
    (msg ^ ": critical path bit-equal") true
    (Float.equal scratch.Allocation.critical_path
       cached.Allocation.critical_path);
  Alcotest.(check bool)
    (msg ^ ": average area bit-equal") true
    (Float.equal scratch.Allocation.average_area
       cached.Allocation.average_area)

(* Descending budgets force divergence-and-fork, ascending ones force
   extension, repeats take the exact-hit path — one sweep crosses every
   serving path of the cache. *)
let cache_beta_sweep =
  [ 1.0; 0.8; 0.6; 0.45; 0.3; 0.2; 0.1; 0.15; 0.25; 0.4; 0.55; 0.7; 0.9;
    1.0; 0.1; 0.2 ]

let test_cache_matches_scratch_sweep () =
  let p = Grid5000.rennes () in
  let r = Reference_cluster.of_platform p in
  let ptg = random_ptg ~tasks:60 11 in
  let cache = Allocation.cache_create () in
  let arena = Alloc_arena.create () in
  List.iter
    (fun beta ->
      let cached = Allocation.allocate_cached ~cache ~arena r p ~beta ptg in
      let scratch = Allocation.allocate r p ~beta ptg in
      check_alloc_equal (Printf.sprintf "beta=%g" beta) scratch cached)
    cache_beta_sweep;
  let s = Allocation.cache_stats cache in
  Alcotest.(check bool)
    "all outcomes accounted" true
    (s.Allocation.hits + s.Allocation.rescales + s.Allocation.misses
    = List.length cache_beta_sweep);
  Alcotest.(check bool) "repeats hit" true (s.Allocation.hits >= 2)

let test_cache_matches_scratch_scrap () =
  let p = Grid5000.rennes () in
  let r = Reference_cluster.of_platform p in
  let ptg = random_ptg ~tasks:40 13 in
  let cache = Allocation.cache_create () in
  let arena = Alloc_arena.create () in
  List.iter
    (fun beta ->
      let cached =
        Allocation.allocate_cached ~procedure:Allocation.Scrap ~cache ~arena r
          p ~beta ptg
      in
      let scratch =
        Allocation.allocate ~procedure:Allocation.Scrap r p ~beta ptg
      in
      check_alloc_equal (Printf.sprintf "scrap beta=%g" beta) scratch cached)
    cache_beta_sweep

let test_cache_matches_scratch_degraded () =
  (* Degraded generations (outage survivors) lower the allocation cap;
     the cache must serve both caps, interleaved, from one instance. *)
  let p = toy_platform ~procs:32 () in
  let r = Reference_cluster.of_platform p in
  let ptg = random_ptg ~tasks:30 17 in
  let cache = Allocation.cache_create () in
  let arena = Alloc_arena.create () in
  List.iter
    (fun (up_counts, beta) ->
      let cached =
        Allocation.allocate_cached ?up_counts ~cache ~arena r p ~beta ptg
      in
      let scratch = Allocation.allocate ?up_counts r p ~beta ptg in
      check_alloc_equal
        (Printf.sprintf "degraded=%b beta=%g" (up_counts <> None) beta)
        scratch cached)
    [
      (None, 0.5); (Some [| 6 |], 0.5); (None, 0.5); (Some [| 6 |], 0.8);
      (Some [| 3 |], 0.8); (None, 1.0); (Some [| 6 |], 0.3); (None, 0.3);
    ]

let test_cache_entry_bound () =
  let p = Grid5000.rennes () in
  let r = Reference_cluster.of_platform p in
  let ptg = random_ptg ~tasks:30 19 in
  let cache = Allocation.cache_create () in
  let arena = Alloc_arena.create () in
  List.iter
    (fun beta ->
      ignore (Allocation.allocate_cached ~cache ~arena r p ~beta ptg))
    (List.init 25 (fun i -> 1. -. (float_of_int i /. 30.)));
  Alcotest.(check bool)
    "entry count within MRU bound" true
    (Allocation.cache_entry_count cache <= 8);
  Allocation.cache_release cache;
  Alcotest.(check int)
    "release empties" 0
    (Allocation.cache_entry_count cache);
  let s = Allocation.cache_stats cache in
  Alcotest.(check bool)
    "stats survive release" true
    (s.Allocation.hits + s.Allocation.rescales + s.Allocation.misses = 25)

let test_cache_binding_guards () =
  let p = toy_platform ~procs:8 () in
  let r = Reference_cluster.of_platform p in
  let ptg = random_ptg ~tasks:10 23 in
  let arena = Alloc_arena.create () in
  let rejected f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  let fresh () =
    let cache = Allocation.cache_create () in
    ignore (Allocation.allocate_cached ~cache ~arena r p ~beta:0.5 ptg);
    cache
  in
  let cache = fresh () in
  Alcotest.(check bool)
    "PTG change rejected" true
    (rejected (fun () ->
         Allocation.allocate_cached ~cache ~arena r p ~beta:0.5
           (random_ptg ~tasks:10 24)));
  let cache = fresh () in
  Alcotest.(check bool)
    "procedure change rejected" true
    (rejected (fun () ->
         Allocation.allocate_cached ~procedure:Allocation.Scrap ~cache ~arena
           r p ~beta:0.5 ptg));
  let cache = fresh () in
  let p2 = toy_platform ~procs:8 ~gflops:2. () in
  let r2 = Reference_cluster.of_platform p2 in
  Alcotest.(check bool)
    "reference speed change rejected" true
    (rejected (fun () ->
         Allocation.allocate_cached ~cache ~arena r2 p2 ~beta:0.5 ptg))

let test_cache_release_and_copy () =
  let p = toy_platform ~procs:8 () in
  let r = Reference_cluster.of_platform p in
  let ptg = random_ptg ~tasks:10 29 in
  let arena = Alloc_arena.create () in
  let cache = Allocation.cache_create () in
  ignore (Allocation.allocate_cached ~cache ~arena r p ~beta:0.5 ptg);
  (* A deep copy serves independently and inherits the statistics. *)
  let copy = Allocation.cache_copy cache in
  let s0 = Allocation.cache_stats copy in
  Alcotest.(check int)
    "copy inherits misses"
    (Allocation.cache_stats cache).Allocation.misses s0.Allocation.misses;
  let from_copy =
    Allocation.allocate_cached ~cache:copy ~arena r p ~beta:0.5 ptg
  in
  check_alloc_equal "copy serves bit-identically"
    (Allocation.allocate r p ~beta:0.5 ptg)
    from_copy;
  Alcotest.(check int)
    "repeat on the copy is a hit" (s0.Allocation.hits + 1)
    (Allocation.cache_stats copy).Allocation.hits;
  Alcotest.(check int)
    "serving the copy leaves the original untouched" s0.Allocation.hits
    (Allocation.cache_stats cache).Allocation.hits;
  (* A warm copy in front of a fresh arena: this is exactly what a
     snapshot-restored engine presents on its first reschedule, and the
     β-extension path must reserve the arena's scratch itself
     (regression for the restored-run [bottom_levels_into] crash). *)
  let fresh_arena = Alloc_arena.create () in
  let grown =
    Allocation.allocate_cached ~cache:copy ~arena:fresh_arena r p ~beta:1.0
      ptg
  in
  check_alloc_equal "β-extension on a fresh arena"
    (Allocation.allocate r p ~beta:1.0 ptg)
    grown;
  (* Release: entries and binding both dropped — the cache accepts a
     different PTG afterwards (contrast with the binding guards above),
     and the lifetime statistics survive. *)
  Allocation.cache_release cache;
  Alcotest.(check int)
    "release empties" 0
    (Allocation.cache_entry_count cache);
  let other = random_ptg ~tasks:10 31 in
  let rebound = Allocation.allocate_cached ~cache ~arena r p ~beta:0.5 other in
  check_alloc_equal "re-bound after release"
    (Allocation.allocate r p ~beta:0.5 other)
    rebound;
  Alcotest.(check bool)
    "statistics survive release" true
    ((Allocation.cache_stats cache).Allocation.misses >= 2)

let qcheck_cache_differential =
  QCheck.Test.make
    ~name:"allocate_cached ≡ allocate over random β streams" ~count:25
    QCheck.(
      pair (int_range 0 5000)
        (list_of_size (Gen.int_range 1 10)
           (oneofl [ 0.1; 0.17; 0.25; 0.33; 0.5; 0.62; 0.75; 0.9; 1.0 ])))
    (fun (seed, betas) ->
      let p = Grid5000.lille () in
      let r = Reference_cluster.of_platform p in
      let ptg = random_ptg seed in
      let cache = Allocation.cache_create () in
      let arena = Alloc_arena.create () in
      List.for_all
        (fun beta ->
          let cached = Allocation.allocate_cached ~cache ~arena r p ~beta ptg in
          let scratch = Allocation.allocate r p ~beta ptg in
          cached.Allocation.procs = scratch.Allocation.procs
          && cached.Allocation.iterations = scratch.Allocation.iterations
          && Float.equal cached.Allocation.critical_path
               scratch.Allocation.critical_path
          && Float.equal cached.Allocation.average_area
               scratch.Allocation.average_area
          && level_share_ok r ~beta ptg cached.Allocation.procs)
        betas)

(* One cache serving the request mix an online engine produces across
   outages: β values, allocation caps from surviving-processor counts
   and reference clusters shrunk by [Reference_cluster.degrade], drawn
   independently. The same β under another reference size means another
   budget and stop power, which is what an exact hit must be keyed on.
   Midway the cache is deep-copied, and the copy and the original each
   serve the rest of the stream. Every result must be bit-identical to
   a scratch run. *)
let qcheck_cache_request_mix =
  let p = Grid5000.lille () in
  let full = Reference_cluster.of_platform p in
  let sizes = Array.init (Platform.cluster_count p) (fun k ->
      (Platform.cluster p k).Platform.procs)
  in
  let caps =
    [|
      None;
      Some (Array.map (fun n -> n / 2) sizes);
      Some (Array.mapi (fun k n -> if k = 0 then 0 else n) sizes);
      Some (Array.map (fun n -> min n 3) sizes);
    |]
  in
  let request =
    QCheck.(
      triple
        (oneofl [ 0.1; 0.2; 0.33; 0.5; 0.75; 1.0 ])
        (int_range 0 (Array.length caps - 1))
        (oneofl [ 1.0; 0.8; 0.5; 0.3 ]))
  in
  QCheck.Test.make ~name:"one cache ≡ scratch over mixed degraded requests"
    ~count:40
    QCheck.(pair (int_range 0 5000) (list_of_size (Gen.int_range 2 14) request))
    (fun (seed, requests) ->
      let ptg = random_ptg seed in
      let arena = Alloc_arena.create () in
      let serve cache (beta, cap, share) =
        let up_counts = caps.(cap) in
        let r =
          Reference_cluster.degrade full
            ~power:(share *. Platform.total_power p)
        in
        let cached =
          Allocation.allocate_cached ?up_counts ~cache ~arena r p ~beta ptg
        in
        let scratch = Allocation.allocate ?up_counts r p ~beta ptg in
        cached.Allocation.procs = scratch.Allocation.procs
        && cached.Allocation.iterations = scratch.Allocation.iterations
        && Float.equal cached.Allocation.critical_path
             scratch.Allocation.critical_path
        && Float.equal cached.Allocation.average_area
             scratch.Allocation.average_area
      in
      let half = List.length requests / 2 in
      let first = List.filteri (fun i _ -> i < half) requests in
      let rest = List.filteri (fun i _ -> i >= half) requests in
      let cache = Allocation.cache_create () in
      List.for_all (serve cache) first
      &&
      let copy = Allocation.cache_copy cache in
      List.for_all (serve copy) rest && List.for_all (serve cache) rest)

(* ---------- Strategy ---------- *)

let sample_ptgs () = [ random_ptg 1; random_ptg 2; random_ptg ~tasks:50 3 ]

let test_strategy_selfish () =
  let betas = Strategy.betas Strategy.Selfish ~ref_speed:1. (sample_ptgs ()) in
  Array.iter (fun b -> check_float "beta 1" 1. b) betas

let test_strategy_equal_share () =
  let betas =
    Strategy.betas Strategy.Equal_share ~ref_speed:1. (sample_ptgs ())
  in
  Array.iter (fun b -> check_float "beta 1/3" (1. /. 3.) b) betas

let test_strategy_proportional_sums_to_one () =
  List.iter
    (fun metric ->
      let betas =
        Strategy.betas (Strategy.Proportional metric) ~ref_speed:1.
          (sample_ptgs ())
      in
      check_float "sums to 1" 1. (Mcs_util.Floatx.sum betas))
    [ Strategy.Cp; Strategy.Width; Strategy.Work ]

let test_strategy_weighted_endpoints () =
  let ptgs = sample_ptgs () in
  let ps = Strategy.betas (Strategy.Proportional Strategy.Work) ~ref_speed:1. ptgs in
  let w0 =
    Strategy.betas (Strategy.Weighted (Strategy.Work, 0.)) ~ref_speed:1. ptgs
  in
  let w1 =
    Strategy.betas (Strategy.Weighted (Strategy.Work, 1.)) ~ref_speed:1. ptgs
  in
  Array.iteri (fun i b -> check_float "mu=0 is PS" ps.(i) b) w0;
  Array.iter (fun b -> check_float "mu=1 is ES" (1. /. 3.) b) w1

let test_strategy_weighted_formula () =
  let ptgs = sample_ptgs () in
  let mu = 0.7 in
  let ps = Strategy.betas (Strategy.Proportional Strategy.Work) ~ref_speed:1. ptgs in
  let w =
    Strategy.betas (Strategy.Weighted (Strategy.Work, mu)) ~ref_speed:1. ptgs
  in
  Array.iteri
    (fun i b ->
      check_float "eq 2" ((mu /. 3.) +. ((1. -. mu) *. ps.(i))) b)
    w

let test_strategy_work_gamma_orders () =
  (* The 50-task PTG has more work than 20-task ones: larger beta. *)
  let betas =
    Strategy.betas (Strategy.Proportional Strategy.Work) ~ref_speed:1.
      (sample_ptgs ())
  in
  Alcotest.(check bool) "big ptg gets more" true
    (betas.(2) > betas.(0) && betas.(2) > betas.(1))

let test_strategy_validation () =
  Alcotest.(check bool) "empty list" true
    (try
       ignore (Strategy.betas Strategy.Selfish ~ref_speed:1. []);
       false
     with Invalid_argument _ -> true);
  List.iter
    (fun mu ->
      Alcotest.(check bool)
        (Printf.sprintf "mu = %g rejected" mu)
        true
        (try
           ignore
             (Strategy.betas (Strategy.Weighted (Strategy.Work, mu))
                ~ref_speed:1. (sample_ptgs ()));
           false
         with Invalid_argument _ -> true))
    [ -0.1; 1.5; Float.nan ]

let test_strategy_short_names () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Strategy.short_name s ^ " round-trips")
        true
        (Strategy.of_short_name (Strategy.short_name s) = Ok s))
    Strategy.paper_eight;
  Alcotest.(check bool) "unknown strategy" true
    (Strategy.of_short_name "WPS-depth" = Error "unknown strategy WPS-depth");
  let module W = Mcs_experiments.Workload in
  List.iter
    (fun (name, family) ->
      Alcotest.(check bool) (name ^ " parses") true
        (W.family_of_string name = Ok family))
    [
      ("random", W.Random_mixed_scenarios);
      ("fft", W.Fft_ptgs);
      ("strassen", W.Strassen_ptgs);
    ];
  Alcotest.(check bool) "unknown family" true
    (W.family_of_string "FFT" = Error "unknown family FFT")

let test_strategy_names () =
  Alcotest.(check string) "S" "S" (Strategy.name Strategy.Selfish);
  Alcotest.(check string) "ES" "ES" (Strategy.name Strategy.Equal_share);
  Alcotest.(check string) "PS-cp" "PS-cp"
    (Strategy.name (Strategy.Proportional Strategy.Cp));
  Alcotest.(check string) "WPS name" "WPS-work(0.7)"
    (Strategy.name (Strategy.Weighted (Strategy.Work, 0.7)));
  Alcotest.(check string) "short" "WPS-work"
    (Strategy.short_name (Strategy.Weighted (Strategy.Work, 0.7)));
  Alcotest.(check int) "eight strategies" 8 (List.length Strategy.paper_eight);
  Alcotest.(check int) "six strategies" 6 (List.length Strategy.paper_six)

let qcheck_betas_in_range =
  QCheck.Test.make ~name:"betas always lie in (0, 1]" ~count:60
    QCheck.(pair (int_range 0 1000) (oneofl [ 0.; 0.3; 0.5; 0.7; 1.0 ]))
    (fun (seed, mu) ->
      let ptgs =
        List.init 5 (fun i -> random_ptg ((seed * 5) + i))
      in
      List.for_all
        (fun strategy ->
          let betas = Strategy.betas strategy ~ref_speed:3. ptgs in
          Array.for_all (fun b -> b > 0. && b <= 1.) betas)
        [
          Strategy.Selfish; Strategy.Equal_share;
          Strategy.Proportional Strategy.Cp;
          Strategy.Proportional Strategy.Width;
          Strategy.Proportional Strategy.Work;
          Strategy.Weighted (Strategy.Cp, mu);
          Strategy.Weighted (Strategy.Width, mu);
          Strategy.Weighted (Strategy.Work, mu);
        ])

(* ---------- Mapper & Schedule ---------- *)

let schedule_random ?(options = List_mapper.default_options) ?(napps = 3)
    ~platform seed =
  let ptgs = List.init napps (fun i -> random_ptg ((seed * 10) + i)) in
  let r = Reference_cluster.of_platform platform in
  let apps =
    List.map
      (fun ptg ->
        let a = Allocation.allocate r platform ~beta:(1. /. float_of_int napps) ptg in
        (ptg, a.Allocation.procs))
      ptgs
  in
  List_mapper.run ~options platform r apps

let test_mapper_valid_schedules () =
  let platform = Grid5000.rennes () in
  let schedules = schedule_random ~platform 7 in
  Mcs_check.Check.(fail_on_error (analyze platform schedules))

let test_mapper_deterministic () =
  let platform = Grid5000.nancy () in
  let s1 = schedule_random ~platform 9 in
  let s2 = schedule_random ~platform 9 in
  List.iter2
    (fun a b ->
      check_float "same makespan" a.Schedule.makespan b.Schedule.makespan)
    s1 s2

let test_mapper_single_app_entry_starts_at_zero () =
  let platform = toy_platform ~procs:8 () in
  let r = Reference_cluster.of_platform platform in
  let ptg = chain [ 5.; 3. ] in
  let schedules = List_mapper.run platform r [ (ptg, [| 1; 1 |]) ] in
  let sched = List.hd schedules in
  check_float "starts at 0" 0. (Schedule.placement sched 0).Schedule.start;
  check_float "makespan 8" 8. sched.Schedule.makespan

let test_mapper_backfill_valid_and_fills_holes () =
  let platform = Grid5000.rennes () in
  let schedules =
    schedule_random ~platform
      ~options:{ List_mapper.default_options with ordering = Global_backfill }
      11
  in
  Mcs_check.Check.(fail_on_error (analyze platform schedules));
  (* Backfilling must beat plain FCFS's global makespan here (packing
     off on both sides: batch reservations are rigid). *)
  let fcfs =
    schedule_random ~platform
      ~options:{ List_mapper.ordering = Global_fcfs; packing = false }
      11
  in
  let global scheds =
    List.fold_left (fun acc s -> Float.max acc s.Schedule.makespan) 0. scheds
  in
  Alcotest.(check bool) "backfill <= fcfs" true
    (global schedules <= global fcfs +. 1e-6)

let test_mapper_backfill_small_ptg_not_postponed () =
  let platform = toy_platform ~procs:2 () in
  let r = Reference_cluster.of_platform platform in
  let big = chain ~id:0 ~alpha:1. [ 10.; 8.; 6.; 4. ] in
  let small = chain ~id:1 ~alpha:1. [ 1.; 1. ] in
  let alloc ptg = Array.make (Ptg.node_count ptg) 1 in
  let schedules =
    List_mapper.run
      ~options:{ List_mapper.default_options with ordering = Global_backfill }
      platform r
      [ (big, alloc big); (small, alloc small) ]
  in
  check_float "small slides into the hole" 2.
    (List.nth schedules 1).Schedule.makespan

let test_mapper_figure1_ready_not_postponed () =
  let platform = toy_platform ~procs:2 () in
  let r = Reference_cluster.of_platform platform in
  let big = chain ~id:0 ~alpha:1. [ 10.; 8.; 6.; 4. ] in
  let small = chain ~id:1 ~alpha:1. [ 1.; 1. ] in
  let alloc ptg = Array.make (Ptg.node_count ptg) 1 in
  let run options =
    List_mapper.run ~options platform r
      [ (big, alloc big); (small, alloc small) ]
  in
  let ready = run { List_mapper.default_options with ordering = Ready_tasks } in
  let fcfs = run { List_mapper.default_options with ordering = Global_fcfs } in
  check_float "ready: small done at 2" 2. (List.nth ready 1).Schedule.makespan;
  Alcotest.(check bool) "fcfs: small postponed" true
    ((List.nth fcfs 1).Schedule.makespan > 20.)

let test_mapper_packing_shrinks_delayed_task () =
  (* One running task holds 3 of 4 processors until t=10; the next task
     is allocated 2 processors but can run on 1 immediately. With
     alpha=1 the execution time is allocation-independent, so packing
     must shrink it and start at 0 on the free processor. *)
  let platform = toy_platform ~procs:4 () in
  let r = Reference_cluster.of_platform platform in
  let blocker = chain ~id:0 ~alpha:0.30 [ 30. ] in
  let seq = chain ~id:1 ~alpha:1. [ 5. ] in
  let blocker_alloc = Array.make (Ptg.node_count blocker) 3 in
  let seq_alloc = Array.make (Ptg.node_count seq) 2 in
  let run packing =
    List_mapper.run
      ~options:{ List_mapper.default_options with packing }
      platform r
      [ (blocker, blocker_alloc); (seq, seq_alloc) ]
  in
  let with_packing = run true in
  let without_packing = run false in
  let seq_pl sched = Schedule.placement (List.nth sched 1) 0 in
  check_float "packing: starts immediately" 0. (seq_pl with_packing).Schedule.start;
  Alcotest.(check int) "packing: shrunk to 1 proc" 1
    (Array.length (seq_pl with_packing).Schedule.procs);
  Alcotest.(check bool) "no packing: delayed" true
    ((seq_pl without_packing).Schedule.start > 0.)

(* Maps [apps] on a 4-processor toy cluster with the recorder on and
   returns the schedules, the packing counters and the number of
   [mapper.packing] spans entered. *)
let packing_run ?avail apps =
  let platform = toy_platform ~procs:4 () in
  let r = Reference_cluster.of_platform platform in
  Obs.enable ();
  let schedules =
    Fun.protect
      ~finally:(fun () -> Obs.disable ())
      (fun () -> List_mapper.run ?avail platform r apps)
  in
  let spans =
    List.length
      (List.filter (fun s -> s.Obs.name = "mapper.packing") (Obs.spans ()))
  in
  ( schedules,
    Obs.value (Obs.counter "mapper.packing_attempts"),
    Obs.value (Obs.counter "mapper.packing_wins"),
    spans )

let check_exact = Alcotest.(check (float 0.))

let check_placement name ~procs ~start ~finish pl =
  Alcotest.(check (array int)) (name ^ " procs") procs pl.Schedule.procs;
  check_exact (name ^ " start") start pl.Schedule.start;
  check_exact (name ^ " finish") finish pl.Schedule.finish

let test_mapper_packing_wins_observed () =
  (* Same fixture as above, instrumented: the successful shrink must be
     visible in the observability counters, and a packed placement only
     ever trades processors for a strictly earlier start that finishes
     no later. *)
  let platform = toy_platform ~procs:4 () in
  let r = Reference_cluster.of_platform platform in
  let blocker = chain ~id:0 ~alpha:0.30 [ 30. ] in
  let seq = chain ~id:1 ~alpha:1. [ 5. ] in
  let apps =
    [
      (blocker, Array.make (Ptg.node_count blocker) 3);
      (seq, Array.make (Ptg.node_count seq) 2);
    ]
  in
  let without_packing =
    List_mapper.run
      ~options:{ List_mapper.default_options with packing = false }
      platform r apps
  in
  let with_packing, attempts, wins, spans = packing_run apps in
  (* Counts, makespans and placements as recorded from the exhaustive
     search that priced every width. The blocker's widths are all ruled
     out by the start bound (all processors idle at 0), so only the
     shrunk task enters the packing loop; both widths still count. *)
  Alcotest.(check int) "attempts" 3 attempts;
  Alcotest.(check int) "wins" 1 wins;
  Alcotest.(check int) "packing loops entered" 1 spans;
  let makespan i = (List.nth with_packing i).Schedule.makespan in
  check_exact "blocker makespan" 16. (makespan 0);
  check_exact "packed makespan" 5. (makespan 1);
  check_placement "blocker" ~procs:[| 1; 2; 3 |] ~start:0. ~finish:16.
    (Schedule.placement (List.nth with_packing 0) 0);
  let packed = Schedule.placement (List.nth with_packing 1) 0 in
  let unpacked = Schedule.placement (List.nth without_packing 1) 0 in
  check_placement "packed" ~procs:[| 0 |] ~start:0. ~finish:5. packed;
  Alcotest.(check bool) "shrunk below the translated allocation" true
    (Array.length packed.Schedule.procs
    < Reference_cluster.translate r platform ~cluster:0 2);
  Alcotest.(check bool) "starts strictly earlier" true
    (packed.Schedule.start < unpacked.Schedule.start);
  Alcotest.(check bool) "finishes no later" true
    (packed.Schedule.finish <= unpacked.Schedule.finish +. 1e-9)

let test_mapper_packing_bound_rules_out_all () =
  (* A chain on the whole idle cluster: each task starts at its
     predecessor's finish whatever its width, so the start bound alone
     rules out every narrower width and the loop is never entered. The
     three ruled-out widths per task still count as attempts. *)
  let ptg = chain [ 10.; 10. ] in
  let schedules, attempts, wins, spans =
    packing_run [ (ptg, Array.make (Ptg.node_count ptg) 4) ]
  in
  Alcotest.(check int) "attempts" 6 attempts;
  Alcotest.(check int) "wins" 0 wins;
  Alcotest.(check int) "packing loops entered" 0 spans;
  let sched = List.hd schedules in
  check_exact "makespan" 5. sched.Schedule.makespan;
  check_placement "first" ~procs:[| 0; 1; 2; 3 |] ~start:0. ~finish:2.5
    (Schedule.placement sched 0);
  check_placement "second" ~procs:[| 0; 1; 2; 3 |] ~start:2.5 ~finish:5.
    (Schedule.placement sched 1)

let test_mapper_packing_bound_stops_partway () =
  (* A 40 s task allocated 4 processors, one of which is busy until 12:
     the full width runs [12, 22]. Widths 3 and 2 start at 1 and win
     (3 finishes first); width 1 needs 40 s from the bound 0, past 22, so
     the loop stops there — the skipped width still counts. *)
  let ptg = chain [ 40. ] in
  let schedules, attempts, wins, spans =
    packing_run ~avail:[| 0.; 1.; 1.; 12. |]
      [ (ptg, Array.make (Ptg.node_count ptg) 4) ]
  in
  Alcotest.(check int) "attempts" 3 attempts;
  Alcotest.(check int) "wins" 2 wins;
  Alcotest.(check int) "packing loops entered" 1 spans;
  let sched = List.hd schedules in
  check_exact "makespan" 14.333333333333332 sched.Schedule.makespan;
  check_placement "task" ~procs:[| 0; 1; 2 |] ~start:1.
    ~finish:14.333333333333332
    (Schedule.placement sched 0)

let test_mapper_backfill_best_fit_ties () =
  (* Four single-task applications on a 4-processor cluster. Placement
     order follows bottom-level priority (longest first), so each
     find_slot call faces a tie among equally-recently-released
     processors and must resolve it towards the lowest ids. *)
  let platform = toy_platform ~procs:4 () in
  let r = Reference_cluster.of_platform platform in
  let apps =
    List.mapi
      (fun i d -> (chain ~id:i ~alpha:1. [ d ], [| 2 |]))
      [ 6.; 4.; 3.; 1. ]
  in
  Obs.enable ();
  let schedules =
    Fun.protect
      ~finally:(fun () -> Obs.disable ())
      (fun () ->
        List_mapper.run
          ~options:{ List_mapper.ordering = Global_backfill; packing = false }
          platform r apps)
  in
  Alcotest.(check bool) "slots found via the timeline" true
    (Obs.value (Obs.counter "mapper.backfill_slots") > 0);
  let pl i = Schedule.placement (List.nth schedules i) 0 in
  (* All four processors are idle at 0: ids break the tie. *)
  check_float "6s task at 0" 0. (pl 0).Schedule.start;
  Alcotest.(check (array int)) "6s task on lowest ids" [| 0; 1 |]
    (pl 0).Schedule.procs;
  check_float "4s task at 0" 0. (pl 1).Schedule.start;
  Alcotest.(check (array int)) "4s task on remaining procs" [| 2; 3 |]
    (pl 1).Schedule.procs;
  (* Best fit prefers the latest-released pair 2,3 over waiting for
     0,1 (busy until 6). *)
  check_float "3s task when 2,3 free" 4. (pl 2).Schedule.start;
  Alcotest.(check (array int)) "3s task reuses 2,3" [| 2; 3 |]
    (pl 2).Schedule.procs;
  (* At 6 procs 0,1 are free while 2,3 run until 7: released-latest
     wins again, the id tie inside the pair is by lowest id. *)
  check_float "1s task when 0,1 free" 6. (pl 3).Schedule.start;
  Alcotest.(check (array int)) "1s task on 0,1" [| 0; 1 |]
    (pl 3).Schedule.procs

let test_budget_of_regression () =
  (* β = 1 grants the whole reference cluster, β = 1/|A| an even split,
     and products landing one ulp under an integer (0.57 · 100 =
     56.999999999999993) must not lose a processor to truncation. *)
  let hundred = Reference_cluster.make ~speed:1. ~procs:100 in
  Alcotest.(check int) "beta=1" 100 (Allocation.budget_of hundred ~beta:1.);
  Alcotest.(check int) "beta=0.57 keeps processor 57" 57
    (Allocation.budget_of hundred ~beta:0.57);
  Alcotest.(check int) "beta=0.29" 29
    (Allocation.budget_of hundred ~beta:0.29);
  let seven = Reference_cluster.make ~speed:1. ~procs:7 in
  Alcotest.(check int) "even split of 7" 1
    (Allocation.budget_of seven ~beta:(1. /. 7.));
  let g5k = Reference_cluster.make ~speed:1. ~procs:158 in
  Alcotest.(check int) "1/6 of 158" 26
    (Allocation.budget_of g5k ~beta:(1. /. 6.))

let test_mapper_prefers_faster_cluster () =
  let platform = two_cluster_platform () in
  let r = Reference_cluster.of_platform platform in
  let ptg = chain ~alpha:1. [ 10. ] in
  let schedules = List_mapper.run platform r [ (ptg, [| 1 |]) ] in
  let pl = Schedule.placement (List.hd schedules) 0 in
  (* Fully sequential task: the 2 GFlop/s cluster halves the time. *)
  Alcotest.(check int) "fast cluster" 1 pl.Schedule.cluster;
  check_float "5 seconds" 5. (pl.Schedule.finish -. pl.Schedule.start)

let test_mapper_respects_dependencies_and_comm () =
  let platform = two_cluster_platform () in
  let r = Reference_cluster.of_platform platform in
  (* Two tasks with a fat edge: if they land on different processor
     sets, the successor starts after the transfer estimate. *)
  let tasks = [| seconds_task ~alpha:0. 10.; seconds_task ~alpha:0. 10. |] in
  let ptg =
    Builder.build ~id:0 ~name:"comm" ~tasks ~edges:[ (0, 1, 1.25e9) ]
  in
  let schedules = List_mapper.run platform r [ (ptg, [| 4; 4 |]) ] in
  let sched = List.hd schedules in
  let p0 = Schedule.placement sched 0 and p1 = Schedule.placement sched 1 in
  Alcotest.(check bool) "succ after pred" true
    (p1.Schedule.start >= p0.Schedule.finish -. 1e-9)

let test_mapper_rejects_bad_input () =
  let platform = toy_platform () in
  let r = Reference_cluster.of_platform platform in
  Alcotest.(check bool) "no apps" true
    (try
       ignore (List_mapper.run platform r []);
       false
     with Invalid_argument _ -> true);
  let ptg = chain [ 1. ] in
  Alcotest.(check bool) "wrong alloc size" true
    (try
       ignore (List_mapper.run platform r [ (ptg, [| 1; 1; 1 |]) ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "alloc < 1" true
    (try
       ignore (List_mapper.run platform r [ (ptg, [| 0 |]) ]);
       false
     with Invalid_argument _ -> true);
  let rejects ?release ?avail () =
    try
      ignore (List_mapper.run ?release ?avail platform r [ (ptg, [| 1 |]) ]);
      false
    with Invalid_argument _ -> true
  in
  List.iter
    (fun (name, bad) ->
      Alcotest.(check bool) ("release " ^ name) true
        (rejects ~release:[| bad |] ());
      Alcotest.(check bool) ("avail " ^ name) true
        (rejects ~avail:[| 0.; bad; 0.; 0. |] ()))
    [
      ("nan", Float.nan);
      ("+inf", Float.infinity);
      ("-inf", Float.neg_infinity);
    ];
  (* A floor on one node of a two-PTG run, under every ordering: an
     infinite one used to reach the availability index (Ready_tasks,
     Global_fcfs) or an infinite makespan (Global_backfill). *)
  let apps = [ (chain [ 1.; 2. ], [| 1; 1 |]); (chain ~id:1 [ 3. ], [| 1 |]) ] in
  List.iter
    (fun ordering ->
      List.iter
        (fun (name, bad) ->
          let task_floor =
            Array.of_list
              (List.mapi
                 (fun i (ptg, _) ->
                   Array.init (Mcs_dag.Dag.node_count ptg.Ptg.dag) (fun v ->
                       if i = 0 && v = 1 then bad else 0.))
                 apps)
          in
          Alcotest.check_raises ("task_floor " ^ name)
            (Invalid_argument "List_mapper.run: ill-formed task floor")
            (fun () ->
              ignore
                (List_mapper.run
                   ~options:{ List_mapper.default_options with ordering }
                   ~task_floor platform r apps)))
        [
          ("nan", Float.nan);
          ("+inf", Float.infinity);
          ("-inf", Float.neg_infinity);
          ("negative", -1.);
        ])
    List_mapper.[ Ready_tasks; Global_fcfs; Global_backfill ];
  (* A session keys its memo by application id. *)
  Alcotest.check_raises "duplicate id"
    (Invalid_argument "List_mapper.map: duplicate application id")
    (fun () ->
      List_mapper.map (List_mapper.session platform) r
        [ (3, ptg, [| 1 |]); (3, ptg, [| 1 |]) ]
        ~placements:[| [| None |]; [| None |] |])

let qcheck_mapper_schedules_valid =
  QCheck.Test.make
    ~name:"mapper produces valid concurrent schedules on all platforms"
    ~count:30
    QCheck.(pair (int_range 0 2000) (int_range 1 3))
    (fun (seed, platform_idx) ->
      let platform = List.nth (Grid5000.all ()) platform_idx in
      let schedules = schedule_random ~platform ~napps:4 seed in
      not Mcs_check.(Diagnostic.has_errors (Check.analyze platform schedules)))

let qcheck_packing_never_hurts_makespan =
  QCheck.Test.make
    ~name:"per-task: packing never worsens the global makespan by >25%"
    ~count:20
    QCheck.(int_range 0 1000)
    (fun seed ->
      let platform = Grid5000.lille () in
      let on =
        schedule_random ~platform
          ~options:{ List_mapper.default_options with packing = true }
          seed
      in
      let off =
        schedule_random ~platform
          ~options:{ List_mapper.default_options with packing = false }
          seed
      in
      let global scheds =
        List.fold_left (fun acc s -> Float.max acc s.Schedule.makespan) 0. scheds
      in
      (* Packing is a local heuristic: allow limited degradation but
         catch systematic regressions. *)
      global on <= global off *. 1.25 +. 1e-6)

(* The packing loop's early exit relies on this holding exactly in
   floating point, not just over the reals. The mapper prices widths
   with [Task.time_of_seq_into] from a stored [Task.seq_time], which
   must store exactly [Task.time]. *)
let qcheck_task_time_monotone =
  QCheck.Test.make
    ~name:"Task.time never increases with the width (exact floats)"
    ~count:100
    QCheck.(
      triple (int_range 0 100_000)
        (oneof [ oneofl [ 1e-3; 1.; 3.; 1e4 ]; float_range 0.01 100. ])
        (oneof [ oneofl [ 0.; 1. ]; float_range 0. 1. ]))
    (fun (seed, gflops, alpha) ->
      let rng = Prng.create ~seed in
      List.for_all
        (fun class_ ->
          let task = { (Task.random rng ~class_) with Task.alpha } in
          let ok = ref true in
          let seq = [| Task.seq_time task ~gflops |] and into = [| 0. |] in
          for p = 1 to 1023 do
            let wide = Task.time task ~gflops ~procs:(p + 1) in
            if wide > Task.time task ~gflops ~procs:p then ok := false;
            Task.time_of_seq_into task ~procs:(p + 1) seq 0 into 0;
            if Int64.bits_of_float into.(0) <> Int64.bits_of_float wide then
              ok := false
          done;
          !ok)
        Task.[ Class_stencil; Class_sort; Class_matmul; Class_mixed ])

(* A session is a cache: on one session, a sequence of maps in which
   ids arrive and depart, allocations change or stay, the reference
   cluster is degraded or rebuilt at another speed, masks move (a whole
   cluster down, or every processor, which raises), and profiles, pinned
   prefixes, floors, orderings and packing vary, gives each map the
   placements of a fresh run on the same inputs, bit for bit. *)
let session_platform =
  Platform.make ~name:"trio"
    [
      { Platform.cluster_name = "a"; procs = 6; gflops = 1.; switch = 0 };
      { Platform.cluster_name = "b"; procs = 4; gflops = 2.; switch = 0 };
      { Platform.cluster_name = "c"; procs = 5; gflops = 1.5; switch = 1 };
    ]

let render_schedules schedules =
  String.concat ";"
    (List.map
       (fun sched ->
         String.concat ","
           (Array.to_list
              (Array.map
                 (fun pl ->
                   Printf.sprintf "%d:%s@%h-%h" pl.Schedule.cluster
                     (String.concat " "
                        (Array.to_list
                           (Array.map string_of_int pl.Schedule.procs)))
                     pl.Schedule.start pl.Schedule.finish)
                 sched.Schedule.placements)))
       schedules)

let outcome f =
  match f () with
  | schedules -> Ok (render_schedules schedules)
  | exception Invalid_argument msg -> Error msg

(* [List_mapper.map] on fresh placement arrays holding [pinned], read
   back as schedules. The pinned options must come back physically
   shared, not re-wrapped. *)
let map_schedules ?options ?release ?pinned ?avail ?up ?task_floor session
    ref_cluster ids =
  let placements =
    match pinned with
    | Some pin -> Array.map Array.copy pin
    | None ->
      Array.of_list
        (List.map (fun (_, ptg, _) -> Array.make (Ptg.node_count ptg) None) ids)
  in
  List_mapper.map ?options ?release ?avail ?up ?task_floor session ref_cluster
    ids ~placements;
  Option.iter
    (Array.iteri (fun i pin ->
         Array.iteri
           (fun v pl ->
             if pl <> None && not (pl == placements.(i).(v)) then
               failwith "map re-wrapped a pinned placement")
           pin))
    pinned;
  List.mapi
    (fun i (_, ptg, _) ->
      Schedule.make ~ptg ~placements:(Array.map Option.get placements.(i)))
    ids

let qcheck_session_matches_fresh_run =
  QCheck.Test.make ~name:"a reused session maps exactly like a fresh run"
    ~count:60 QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let platform = session_platform in
      let total = Platform.total_procs platform in
      let base = Reference_cluster.of_platform platform in
      let session = List_mapper.session platform in
      let random_alloc ptg =
        Array.init (Mcs_dag.Dag.node_count ptg.Ptg.dag) (fun _ ->
            Prng.int_in rng ~lo:1 ~hi:5)
      in
      let arrive live id =
        let ptg = random_ptg ~tasks:(Prng.int_in rng ~lo:2 ~hi:9) (Prng.int rng 1_000_000) in
        (id, (ptg, random_alloc ptg)) :: List.remove_assoc id live
      in
      let steps = Prng.int_in rng ~lo:5 ~hi:20 in
      let blackout = Prng.int rng steps in
      let next = ref 0 in
      let fresh_id () =
        incr next;
        !next
      in
      let live = ref [] in
      let ok = ref true in
      for step = 0 to steps - 1 do
        (* Departures, arrivals (sometimes a new PTG under a live id),
           and allocations that change, stay, or come back as an equal
           copy. *)
        List.iter
          (fun (id, _) ->
            if Prng.bernoulli rng ~p:0.2 then begin
              List_mapper.forget session id;
              live := List.remove_assoc id !live
            end)
          !live;
        for _ = 1 to Prng.int rng 3 do
          live := arrive !live (fresh_id ())
        done;
        (match !live with
        | (id, _) :: _ when Prng.bernoulli rng ~p:0.1 -> live := arrive !live id
        | [] -> live := arrive !live (fresh_id ())
        | _ -> ());
        live :=
          List.map
            (fun (id, (ptg, alloc)) ->
              let u = Prng.float rng 1. in
              if u < 0.3 then (id, (ptg, random_alloc ptg))
              else if u < 0.5 then (id, (ptg, Array.copy alloc))
              else (id, (ptg, alloc)))
            !live;
        let apps = List.map snd !live in
        let ids = List.map (fun (id, (ptg, alloc)) -> (id, ptg, alloc)) !live in
        let ref_cluster =
          match Prng.int rng 3 with
          | 0 -> base
          | 1 ->
            Reference_cluster.degrade base
              ~power:(Prng.uniform rng ~lo:2. ~hi:(Platform.total_power platform))
          | _ ->
            Reference_cluster.make
              ~speed:(base.Reference_cluster.speed *. Prng.uniform rng ~lo:0.5 ~hi:2.)
              ~procs:base.Reference_cluster.procs
        in
        let options =
          {
            List_mapper.ordering =
              (if step = blackout then List_mapper.Ready_tasks
               else
                 Prng.choose rng
                   List_mapper.[| Ready_tasks; Global_fcfs; Global_backfill |]);
            packing = Prng.bool rng;
          }
        in
        let up =
          if step = blackout then Some (Array.make total false)
          else if Prng.bool rng then None
          else begin
            let u = Array.init total (fun _ -> Prng.bernoulli rng ~p:0.8) in
            if Prng.bool rng then begin
              let k = Prng.int rng (Platform.cluster_count platform) in
              let first = Platform.first_proc platform k in
              for p = first to first + (Platform.cluster platform k).Platform.procs - 1 do
                u.(p) <- false
              done
            end;
            Some u
          end
        in
        let avail =
          if Prng.bool rng then None
          else
            Some
              (Array.init total (fun _ ->
                   if Prng.bool rng then Prng.choose rng [| 0.; 5.; 12. |]
                   else Prng.uniform rng ~lo:0. ~hi:30.))
        in
        let napps = List.length apps in
        let release =
          if Prng.bool rng then None
          else Some (Array.init napps (fun _ -> Prng.uniform rng ~lo:0. ~hi:10.))
        in
        let task_floor =
          if Prng.bernoulli rng ~p:0.3 then
            Some
              (Array.of_list
                 (List.map
                    (fun (ptg, _) ->
                      Array.init (Mcs_dag.Dag.node_count ptg.Ptg.dag) (fun _ ->
                          if Prng.bernoulli rng ~p:0.3 then
                            Prng.uniform rng ~lo:0. ~hi:20.
                          else 0.))
                    apps))
          else None
        in
        (* A pinned prefix: the placements of a fresh unmasked run that
           start before a cutoff, which is predecessor-closed. *)
        let pinned =
          if step = blackout || Prng.bool rng then None
          else begin
            let schedules = List_mapper.run ~options ?avail platform ref_cluster apps in
            let horizon =
              List.fold_left (fun acc s -> Float.max acc s.Schedule.makespan) 0. schedules
            in
            let cutoff = Prng.uniform rng ~lo:0. ~hi:(horizon /. 2.) in
            Some
              (Array.of_list
                 (List.map
                    (fun sched ->
                      Array.map
                        (fun pl -> if pl.Schedule.start < cutoff then Some pl else None)
                        sched.Schedule.placements)
                    schedules))
          end
        in
        let warm =
          outcome (fun () ->
              map_schedules ~options ?release ?pinned ?avail ?up ?task_floor
                session ref_cluster ids)
        in
        let fresh =
          outcome (fun () ->
              List_mapper.run ~options ?release ?pinned ?avail ?up ?task_floor
                platform ref_cluster apps)
        in
        if warm <> fresh then ok := false;
        if step = blackout && Result.is_ok fresh then ok := false
      done;
      !ok)

(* The mapper runs on every reschedule, and in the serving layer's
   multi-domain mode each minor collection it triggers is a
   stop-the-world barrier across all shard domains: pin its allocation
   rate in minor words per DAG node per run (dune's default profile). *)
let test_mapper_allocation_budget () =
  let platform = Grid5000.rennes () in
  let rng = Prng.create ~seed:3 in
  let ptgs =
    List.init 8 (fun _ ->
        Mcs_ptg.Random_gen.generate rng Mcs_ptg.Random_gen.default)
  in
  let prepared =
    Pipeline.prepare ~strategy:Strategy.Equal_share platform ptgs
  in
  let apps =
    List.mapi
      (fun i ptg -> (ptg, prepared.Pipeline.allocations.(i).Allocation.procs))
      ptgs
  in
  let release = Array.init 8 (fun i -> 7. *. float_of_int i) in
  let ref_cluster = Reference_cluster.of_platform platform in
  let nodes =
    List.fold_left
      (fun acc ptg -> acc + Mcs_dag.Dag.node_count ptg.Ptg.dag)
      0 ptgs
  in
  let per_node run =
    run ();
    let runs = 20 in
    let w0 = Gc.minor_words () in
    for _ = 1 to runs do
      run ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int (runs * nodes)
  in
  Obs.disable ();
  let fresh =
    per_node (fun () ->
        ignore (List_mapper.run ~release platform ref_cluster apps))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per node per run (budget 200)" fresh)
    true (fresh <= 200.);
  (* A warm session keeps its memo, index and scratch: a session that
     rebuilt them on every map would miss this budget. *)
  let session = List_mapper.session platform in
  let ids = List.mapi (fun i (ptg, alloc) -> (i, ptg, alloc)) apps in
  let warm =
    per_node (fun () ->
        List_mapper.map ~release session ref_cluster ids
          ~placements:
            (Array.of_list
               (List.map
                  (fun ptg -> Array.make (Mcs_dag.Dag.node_count ptg.Ptg.dag) None)
                  ptgs)))
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words per node per warm map (budget 45)" warm)
    true (warm <= 45.)

(* ---------- Schedule validation itself ---------- *)

let check_rules what expected platform schedules =
  Alcotest.(check (list string)) what expected
    Mcs_check.(Diagnostic.rule_ids (Check.analyze platform schedules))

let test_validate_catches_overlap () =
  let platform = toy_platform ~procs:2 () in
  let mk_sched start =
    let ptg = chain [ 5. ] in
    let placements =
      [|
        { Schedule.node = 0; cluster = 0; procs = [| 0 |]; start;
          finish = start +. 5. };
      |]
    in
    Schedule.make ~ptg ~placements
  in
  check_rules "overlap caught" [ "map-overlap" ] platform
    [ mk_sched 0.; mk_sched 2. ];
  check_rules "back-to-back not flagged" [] platform
    [ mk_sched 0.; mk_sched 5. ]

let test_validate_catches_precedence () =
  let platform = toy_platform ~procs:2 () in
  let ptg = chain [ 2.; 2. ] in
  let placements =
    [|
      { Schedule.node = 0; cluster = 0; procs = [| 0 |]; start = 0.; finish = 2. };
      { Schedule.node = 1; cluster = 0; procs = [| 1 |]; start = 1.; finish = 3. };
    |]
  in
  check_rules "precedence violation caught" [ "map-precedence" ] platform
    [ Schedule.make ~ptg ~placements ]

let test_validate_catches_empty_procs () =
  let platform = toy_platform () in
  let ptg = chain [ 2. ] in
  let placements =
    [| { Schedule.node = 0; cluster = 0; procs = [||]; start = 0.; finish = 2. } |]
  in
  check_rules "real task without processors caught" [ "map-virtual" ]
    platform
    [ Schedule.make ~ptg ~placements ]

let test_cluster_busy_and_efficiency () =
  let platform = two_cluster_platform () in
  let ptg = chain ~alpha:0. [ 8. ] in
  (* One fully-parallel task on 2 procs of the fast (2 GFlop/s) cluster:
     8e9 flops -> 2 s on 2x2 GFlop/s. *)
  let placements =
    [|
      { Schedule.node = 0; cluster = 1; procs = [| 8; 9 |]; start = 0.;
        finish = 2. };
    |]
  in
  let sched = Schedule.make ~ptg ~placements in
  let busy = Schedule.cluster_busy_time ~platform [ sched ] in
  check_float "slow cluster idle" 0. busy.(0);
  check_float "fast cluster busy" 4. busy.(1);
  (* capacity = 2 s x 4 GFlop/s = 8e9 flops = work: efficiency 1. *)
  check_float "perfect efficiency" 1.
    (Schedule.parallel_efficiency ~platform sched)

let test_busy_time_and_power () =
  let platform = toy_platform ~procs:4 ~gflops:2. () in
  let ptg = chain [ 2. ] in
  let placements =
    [|
      { Schedule.node = 0; cluster = 0; procs = [| 0; 1 |]; start = 0.;
        finish = 3. };
    |]
  in
  let sched = Schedule.make ~ptg ~placements in
  check_float "busy" 6. (Schedule.busy_time sched);
  (* 3 s on 2 procs of 2 GFlop/s over a 3 s makespan -> 4 GFlop/s. *)
  check_float "avg power" 4. (Schedule.used_power_avg sched ~platform)

(* ---------- Pipeline ---------- *)

let test_pipeline_end_to_end () =
  let platform = Grid5000.lille () in
  let ptgs = List.init 4 (fun i -> random_ptg (100 + i)) in
  let schedules =
    Pipeline.schedule_concurrent ~strategy:Strategy.Equal_share platform ptgs
  in
  Alcotest.(check int) "one schedule per app" 4 (List.length schedules);
  Mcs_check.Check.(fail_on_error (analyze platform schedules));
  let prepared =
    Pipeline.prepare ~strategy:Strategy.Equal_share platform ptgs
  in
  Array.iter (fun b -> check_float "es beta" 0.25 b) prepared.Pipeline.betas

let test_pipeline_alone_no_slower_than_shared () =
  let platform = Grid5000.nancy () in
  let ptg = random_ptg 55 in
  let alone = Pipeline.schedule_alone platform ptg in
  let shared =
    List.hd
      (Pipeline.schedule_concurrent ~strategy:Strategy.Equal_share platform
         [ ptg; random_ptg 56; random_ptg 57 ])
  in
  Alcotest.(check bool) "alone is at least as fast" true
    (alone.Schedule.makespan <= shared.Schedule.makespan +. 1e-6)

let suite =
  [
    ( "sched.reference_cluster",
      [
        Alcotest.test_case "of_platform" `Quick test_ref_of_platform;
        Alcotest.test_case "translate" `Quick test_ref_translate;
        Alcotest.test_case "fits & max_allocation" `Quick test_ref_fits_and_max;
        Alcotest.test_case "exec_time" `Quick test_ref_exec_time;
      ] );
    ( "sched.allocation",
      [
        Alcotest.test_case "beta budget" `Quick
          test_allocation_respects_beta_budget;
        Alcotest.test_case "selfish uses more" `Quick
          test_allocation_selfish_uses_more;
        Alcotest.test_case "minimum one proc" `Quick
          test_allocation_minimum_one_proc;
        Alcotest.test_case "reduces critical path" `Quick
          test_allocation_reduces_critical_path;
        Alcotest.test_case "beta validation" `Quick
          test_allocation_beta_validation;
        Alcotest.test_case "scrap vs scrap-max" `Quick test_scrap_vs_scrap_max;
        Alcotest.test_case "budget_of regression" `Quick
          test_budget_of_regression;
        QCheck_alcotest.to_alcotest qcheck_scrap_max_levels;
        QCheck_alcotest.to_alcotest qcheck_allocation_capped;
      ] );
    ( "sched.alloc_cache",
      [
        Alcotest.test_case "sweep ≡ scratch" `Quick
          test_cache_matches_scratch_sweep;
        Alcotest.test_case "scrap ≡ scratch" `Quick
          test_cache_matches_scratch_scrap;
        Alcotest.test_case "degraded caps ≡ scratch" `Quick
          test_cache_matches_scratch_degraded;
        Alcotest.test_case "entry bound & clear" `Quick
          test_cache_entry_bound;
        Alcotest.test_case "binding guards" `Quick test_cache_binding_guards;
        Alcotest.test_case "release & copy" `Quick
          test_cache_release_and_copy;
        QCheck_alcotest.to_alcotest qcheck_cache_differential;
        QCheck_alcotest.to_alcotest qcheck_cache_request_mix;
      ] );
    ( "sched.strategy",
      [
        Alcotest.test_case "selfish" `Quick test_strategy_selfish;
        Alcotest.test_case "equal share" `Quick test_strategy_equal_share;
        Alcotest.test_case "proportional sums" `Quick
          test_strategy_proportional_sums_to_one;
        Alcotest.test_case "weighted endpoints" `Quick
          test_strategy_weighted_endpoints;
        Alcotest.test_case "weighted formula" `Quick
          test_strategy_weighted_formula;
        Alcotest.test_case "work ordering" `Quick
          test_strategy_work_gamma_orders;
        Alcotest.test_case "validation" `Quick test_strategy_validation;
        Alcotest.test_case "short names parse back" `Quick
          test_strategy_short_names;
        Alcotest.test_case "names" `Quick test_strategy_names;
        QCheck_alcotest.to_alcotest qcheck_betas_in_range;
      ] );
    ( "sched.mapper",
      [
        Alcotest.test_case "valid schedules" `Quick test_mapper_valid_schedules;
        Alcotest.test_case "deterministic" `Quick test_mapper_deterministic;
        Alcotest.test_case "single app timing" `Quick
          test_mapper_single_app_entry_starts_at_zero;
        Alcotest.test_case "figure 1 orderings" `Quick
          test_mapper_figure1_ready_not_postponed;
        Alcotest.test_case "backfill validity" `Quick
          test_mapper_backfill_valid_and_fills_holes;
        Alcotest.test_case "backfill fills holes" `Quick
          test_mapper_backfill_small_ptg_not_postponed;
        Alcotest.test_case "packing shrinks delayed task" `Quick
          test_mapper_packing_shrinks_delayed_task;
        Alcotest.test_case "packing wins observed" `Quick
          test_mapper_packing_wins_observed;
        Alcotest.test_case "packing bound rules out all widths" `Quick
          test_mapper_packing_bound_rules_out_all;
        Alcotest.test_case "packing bound stops partway" `Quick
          test_mapper_packing_bound_stops_partway;
        Alcotest.test_case "backfill best-fit ties" `Quick
          test_mapper_backfill_best_fit_ties;
        Alcotest.test_case "prefers faster cluster" `Quick
          test_mapper_prefers_faster_cluster;
        Alcotest.test_case "dependencies & comm" `Quick
          test_mapper_respects_dependencies_and_comm;
        Alcotest.test_case "input validation" `Quick
          test_mapper_rejects_bad_input;
        QCheck_alcotest.to_alcotest qcheck_mapper_schedules_valid;
        QCheck_alcotest.to_alcotest qcheck_packing_never_hurts_makespan;
        QCheck_alcotest.to_alcotest qcheck_task_time_monotone;
        QCheck_alcotest.to_alcotest qcheck_session_matches_fresh_run;
        Alcotest.test_case "allocation budget" `Quick
          test_mapper_allocation_budget;
      ] );
    ( "sched.schedule",
      [
        Alcotest.test_case "overlap detection" `Quick
          test_validate_catches_overlap;
        Alcotest.test_case "precedence detection" `Quick
          test_validate_catches_precedence;
        Alcotest.test_case "empty procs detection" `Quick
          test_validate_catches_empty_procs;
        Alcotest.test_case "cluster busy & efficiency" `Quick
          test_cluster_busy_and_efficiency;
        Alcotest.test_case "busy time & power" `Quick test_busy_time_and_power;
      ] );
    ( "sched.pipeline",
      [
        Alcotest.test_case "end to end" `Quick test_pipeline_end_to_end;
        Alcotest.test_case "alone vs shared" `Quick
          test_pipeline_alone_no_slower_than_shared;
      ] );
  ]
