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

(* A cap that moves without touching the trajectory: every recorded
   step of a full-cap request admits any cap down to its largest
   allocation, so the same β under a mask lowering the cap that far is
   served by replay (a rescale), not a new live run. A mask one
   processor lower excludes a recorded allocation and diverges. Both
   equal scratch. *)
let test_cache_cap_change () =
  let p = toy_platform ~procs:32 () in
  let r = Reference_cluster.of_platform p in
  let ptg = random_ptg ~tasks:30 17 in
  let cache = Allocation.cache_create () in
  let arena = Alloc_arena.create () in
  let beta = 0.5 in
  let request up_counts =
    let before = Allocation.cache_stats cache in
    let cached =
      Allocation.allocate_cached ?up_counts ~cache ~arena r p ~beta ptg
    in
    let cap = Reference_cluster.max_allocation ?up_counts r p in
    check_alloc_equal (Printf.sprintf "cap %d" cap)
      (Allocation.allocate ?up_counts r p ~beta ptg)
      cached;
    let after = Allocation.cache_stats cache in
    (cached, after.Allocation.rescales - before.Allocation.rescales,
     after.Allocation.misses - before.Allocation.misses)
  in
  let full, _, _ = request None in
  let widest = Array.fold_left max 1 full.Allocation.procs in
  Alcotest.(check bool)
    "the mask lowers the cap" true (widest >= 2 && widest < 32);
  let _, rescales, misses = request (Some [| widest |]) in
  Alcotest.(check (pair int int))
    "a cap admitting every step: rescale, no miss" (1, 0) (rescales, misses);
  let _, rescales, misses = request (Some [| widest - 1 |]) in
  Alcotest.(check (pair int int))
    "a cap below a recorded allocation: miss" (0, 1) (rescales, misses)

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

let test_cache_release_and_fresh_arena () =
  let p = toy_platform ~procs:8 () in
  let r = Reference_cluster.of_platform p in
  let ptg = random_ptg ~tasks:10 29 in
  let arena = Alloc_arena.create () in
  let cache = Allocation.cache_create () in
  ignore (Allocation.allocate_cached ~cache ~arena r p ~beta:0.5 ptg);
  (* A warm cache in front of a fresh arena, which any caller may pass:
     the β-extension path must reserve the arena's scratch itself
     (regression for a [bottom_levels_into] crash). *)
  let fresh_arena = Alloc_arena.create () in
  let grown =
    Allocation.allocate_cached ~cache ~arena:fresh_arena r p ~beta:1.0 ptg
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

(* What the increment loop allocates per increment, in minor words
   (dune's default profile): a scratch [allocate] at β = 1 and the same
   requests through fresh cache entries on a warm arena, on 20 random
   50-task PTGs. The loop itself allocates nothing; the words left are
   per-call arrays and a fresh entry's growing records. A loop that
   passes closures and boxed floats to the level repair allocates ~940
   words per increment here. *)
let test_alloc_loop_budget () =
  let p = Grid5000.rennes () in
  let r = Reference_cluster.of_platform p in
  let ptgs = List.init 20 (fun i -> random_ptg ~tasks:50 (100 + i)) in
  let arena = Alloc_arena.create () in
  let per_increment allocate =
    ignore (allocate (List.hd ptgs));
    let increments = ref 0 in
    let w0 = Gc.minor_words () in
    List.iter
      (fun ptg ->
        let res = allocate ptg in
        increments := !increments + res.Allocation.iterations)
      ptgs;
    (Gc.minor_words () -. w0) /. float_of_int !increments
  in
  Obs.disable ();
  List.iter
    (fun (name, allocate) ->
      let per = per_increment allocate in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f minor words per increment (budget 32)" name
           per)
        true (per <= 32.))
    [
      ("scratch allocate", fun ptg -> Allocation.allocate r p ~beta:1. ptg);
      ( "fresh cache entry",
        fun ptg ->
          Allocation.allocate_cached ~cache:(Allocation.cache_create ()) ~arena
            r p ~beta:1. ptg );
    ]

(* One cache serving the request mix an online engine produces across
   outages: β values, allocation caps from random per-cluster
   surviving-processor counts (whole clusters down included) and
   reference clusters shrunk by [Reference_cluster.degrade], drawn
   independently, on a random, FFT or Strassen PTG under either
   procedure. The same β under another reference size means another
   budget and stop power, which is what an exact hit must be keyed on;
   a cap that moves must be checked against every recorded step.
   Every result must be bit-identical to a scratch run. *)
let qcheck_cache_request_mix =
  let p = Grid5000.lille () in
  let full = Reference_cluster.of_platform p in
  let sizes = Array.init (Platform.cluster_count p) (fun k ->
      (Platform.cluster p k).Platform.procs)
  in
  (* Surviving quarters per cluster: 0 takes the cluster out. *)
  let mask =
    QCheck.(
      option (array_of_size (Gen.return (Array.length sizes)) (int_range 0 4)))
  in
  let request =
    QCheck.(
      triple
        (oneofl [ 0.1; 0.2; 0.33; 0.5; 0.75; 1.0 ])
        mask
        (oneofl [ 1.0; 0.8; 0.5; 0.3 ]))
  in
  let ptg_of kind seed =
    let rng = Prng.create ~seed in
    match kind with
    | 0 -> random_ptg seed
    | 1 -> Mcs_ptg.Fft.generate ~points:(if seed mod 2 = 0 then 4 else 8) rng
    | _ -> Mcs_ptg.Strassen.generate rng
  in
  QCheck.Test.make ~name:"one cache ≡ scratch over mixed degraded requests"
    ~count:60
    QCheck.(
      quad (int_range 0 2) (int_range 0 5000) bool
        (list_of_size (Gen.int_range 2 14) request))
    (fun (kind, seed, scrap, requests) ->
      let ptg = ptg_of kind seed in
      let procedure =
        if scrap then Allocation.Scrap else Allocation.Scrap_max
      in
      let arena = Alloc_arena.create () in
      let cache = Allocation.cache_create () in
      let serve (beta, quarters, share) =
        let up_counts =
          Option.map (Array.mapi (fun k q -> sizes.(k) * q / 4)) quarters
        in
        let r =
          Reference_cluster.degrade full
            ~power:(share *. Platform.total_power p)
        in
        let cached =
          Allocation.allocate_cached ~procedure ?up_counts ~cache ~arena r p
            ~beta ptg
        in
        let scratch = Allocation.allocate ~procedure ?up_counts r p ~beta ptg in
        cached.Allocation.procs = scratch.Allocation.procs
        && cached.Allocation.iterations = scratch.Allocation.iterations
        && Float.equal cached.Allocation.critical_path
             scratch.Allocation.critical_path
        && Float.equal cached.Allocation.average_area
             scratch.Allocation.average_area
      in
      List.for_all serve requests)

(* ---------- Increment loop against its two-pass original ---------- *)

(* The SCRAP(-MAX) increment loop as it ran before its scan collected
   the excluded candidates, kept as the reference: the scan only notes
   that the cap or the budget excluded some critical candidate, and a
   second pass over every node re-tests criticality, the gain and the
   displacement of the winner to find the smallest budget and cap that
   would change the choice. It records what {!Allocation.trajectory}
   returns. *)
let two_pass_trajectory ~procedure ~budget ~cap ~beta_power ref_cluster ptg =
  let dag = ptg.Ptg.dag in
  let n = Mcs_dag.Dag.node_count dag in
  let gflops = ref_cluster.Reference_cluster.speed in
  let seq =
    Array.map
      (fun t -> if Task.is_zero t then 0. else Task.seq_time t ~gflops)
      ptg.Ptg.tasks
  in
  let alpha = Array.map (fun t -> t.Task.alpha) ptg.Ptg.tasks in
  let exec_at v p =
    seq.(v) *. (alpha.(v) +. ((1. -. alpha.(v)) /. float_of_int p))
  in
  let levels = Mcs_dag.Dag.depth_levels dag in
  let procs = Array.make n 1 in
  let usage = Array.make (max 1 (Mcs_dag.Dag.depth dag)) 0 in
  let exec = Array.init n (fun v -> exec_at v 1) in
  for v = 0 to n - 1 do
    if not (Ptg.is_virtual ptg v) then
      usage.(levels.(v)) <- usage.(levels.(v)) + 1
  done;
  let area = ref 0. in
  for v = 0 to n - 1 do
    area := !area +. (exec.(v) *. float_of_int procs.(v))
  done;
  let bl = Array.make n 0. and tl = Array.make n 0. in
  let dirty = Bytes.make n '\000' in
  Mcs_dag.Dag.fill_bottom_levels dag exec bl;
  Mcs_dag.Dag.fill_top_levels dag exec tl;
  let gain = Array.init n (fun v -> exec.(v) -. exec_at v (procs.(v) + 1)) in
  let per_level = procedure = Allocation.Scrap_max in
  let steps = ref [] and cps = ref [] and areas = ref [] in
  let closed = ref false in
  let closed_ceil = ref max_int and closed_chi = ref max_int in
  let continue = ref true and count = ref 0 in
  while !continue && !count < (cap * n) + 1 do
    let cp = bl.(Ptg.entry ptg) in
    cps := cp :: !cps;
    areas := !area :: !areas;
    if cp <= (!area /. beta_power) +. Mcs_util.Floatx.eps then
      continue := false
    else begin
      let tolerance = 1e-9 *. if cp > 1. then cp else 1. in
      let critical v =
        seq.(v) > 0. && Float.abs (tl.(v) +. bl.(v) -. cp) <= tolerance
      in
      let best = ref (-1) and best_gain = ref 0. in
      let excluded = ref false in
      for v = 0 to n - 1 do
        if critical v then
          if
            procs.(v) < cap
            && ((not per_level) || usage.(levels.(v)) + 1 <= budget)
          then begin
            if gain.(v) > !best_gain then begin
              best := v;
              best_gain := gain.(v)
            end
          end
          else excluded := true
      done;
      let ceil = ref max_int and chi = ref max_int in
      if !excluded then
        for u = 0 to n - 1 do
          let g = gain.(u) in
          if
            critical u && g > 0.
            && (!best < 0 || g > !best_gain || (g = !best_gain && u < !best))
          then
            if procs.(u) >= cap then chi := min !chi (procs.(u) + 1)
            else if per_level && usage.(levels.(u)) + 1 > budget then
              ceil := min !ceil (usage.(levels.(u)) + 1)
        done;
      if !best < 0 then begin
        continue := false;
        closed := true;
        closed_ceil := !ceil;
        closed_chi := !chi
      end
      else begin
        let v = !best in
        let req = if per_level then usage.(levels.(v)) + 1 else 1 in
        steps := [ v; req; !ceil; procs.(v) + 1; !chi ] :: !steps;
        let before = exec.(v) *. float_of_int procs.(v) in
        procs.(v) <- procs.(v) + 1;
        usage.(levels.(v)) <- usage.(levels.(v)) + 1;
        exec.(v) <- exec_at v procs.(v);
        gain.(v) <- exec.(v) -. exec_at v (procs.(v) + 1);
        area := !area -. before +. (exec.(v) *. float_of_int procs.(v));
        Mcs_dag.Dag.repair_levels dag exec ~changed:v ~dirty ~bl ~tl;
        incr count
      end
    end
  done;
  {
    Allocation.steps = Array.of_list (List.concat (List.rev !steps));
    cps = Array.of_list (List.rev !cps);
    areas = Array.of_list (List.rev !areas);
    closed = !closed;
    closed_ceil = !closed_ceil;
    closed_chi = !closed_chi;
  }

(* The single-scan loop records the trajectory of the two-pass one:
   every step's node, budget interval and cap interval, every state's
   critical path and area bit for bit, and how the run closed. Small
   budgets and caps exclude critical candidates; tasks made fully
   sequential (α = 1) have zero gain, so they are critical candidates
   that must never bound a choice. *)
let qcheck_loop_matches_two_pass =
  let p = Grid5000.lille () in
  let r = Reference_cluster.of_platform p in
  let sequential ptg every =
    let tasks =
      Array.mapi
        (fun v t ->
          if every > 0 && v mod every = 0 && not (Task.is_zero t) then
            { t with Task.alpha = 1. }
          else t)
        ptg.Ptg.tasks
    in
    Ptg.create ~id:ptg.Ptg.id ~name:ptg.Ptg.name ~dag:ptg.Ptg.dag ~tasks
      ~edge_bytes:ptg.Ptg.edge_bytes
  in
  QCheck.Test.make ~name:"increment loop ≡ its two-pass original"
    ~count:150
    QCheck.(
      quad
        (pair (int_range 0 5000) (int_range 0 3))
        (pair bool (int_range 0 11))
        (int_range 0 15)
        (oneofl [ 0.05; 0.2; 0.5; 1.0 ]))
    (fun ((seed, every), (scrap, b), c, beta) ->
      let ptg =
        sequential (random_ptg ~tasks:(10 + (seed mod 40)) seed) every
      in
      let procedure =
        if scrap then Allocation.Scrap else Allocation.Scrap_max
      in
      let budget = 1 + b and cap = 1 + c in
      let beta_power = beta *. float_of_int r.Reference_cluster.procs in
      let got =
        Allocation.trajectory ~procedure ~budget ~cap ~beta_power r ptg
      in
      let want =
        two_pass_trajectory ~procedure ~budget ~cap ~beta_power r ptg
      in
      let floats_equal a b =
        Array.length a = Array.length b && Array.for_all2 Float.equal a b
      in
      got.Allocation.steps = want.Allocation.steps
      && floats_equal got.Allocation.cps want.Allocation.cps
      && floats_equal got.Allocation.areas want.Allocation.areas
      && got.Allocation.closed = want.Allocation.closed
      && got.Allocation.closed_ceil = want.Allocation.closed_ceil
      && got.Allocation.closed_chi = want.Allocation.closed_chi)

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

(* [map_schedules] on a fresh session, the applications numbered in
   list order. *)
let map_fresh ?options ?release ?pinned ?avail ?up ?task_floor platform
    ref_cluster apps =
  map_schedules ?options ?release ?pinned ?avail ?up ?task_floor
    (List_mapper.session platform) ref_cluster
    (List.mapi (fun i (ptg, alloc) -> (i, ptg, alloc)) apps)

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

(* Maps [apps] on [platform] (a 4-processor toy cluster by default)
   with the recorder on and returns the schedules, the packing counters
   and the number of [mapper.packing] spans entered. *)
let packing_run ?(platform = toy_platform ~procs:4 ()) ?avail apps =
  let r = Reference_cluster.of_platform platform in
  Obs.enable ();
  let schedules =
    Fun.protect
      ~finally:(fun () -> Obs.disable ())
      (fun () -> map_fresh ?avail platform r apps)
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
     the full width runs [12, 22]. Width 3 starts at 1 and finishes at
     14.33, the one packed placement. Width 2 would start at 1 too, but
     it runs 20 s from the bound 0, past width 3's finish, so it cannot
     win and the loop stops there without pricing it or width 1 — the
     skipped widths still count. *)
  let ptg = chain [ 40. ] in
  let schedules, attempts, wins, spans =
    packing_run ~avail:[| 0.; 1.; 1.; 12. |]
      [ (ptg, Array.make (Ptg.node_count ptg) 4) ]
  in
  Alcotest.(check int) "attempts" 3 attempts;
  Alcotest.(check int) "wins" 1 wins;
  Alcotest.(check int) "packing loops entered" 1 spans;
  let sched = List.hd schedules in
  check_exact "makespan" 14.333333333333332 sched.Schedule.makespan;
  check_placement "task" ~procs:[| 0; 1; 2 |] ~start:1.
    ~finish:14.333333333333332
    (Schedule.placement sched 0)

let candidates_priced () = Obs.value (Obs.counter "mapper.candidates_priced")

let test_mapper_cluster_bound_skips_cluster () =
  (* An 8 s task (alpha 0.5) allocated 4 reference processors: 2 on the
     fast cluster, where it runs [0, 3], and 4 on the slow one, where no
     candidate can finish before 0 + 5. The fast cluster's bound is the
     lower, so it is visited first whatever its index: the slow cluster
     is never priced, and its three packing widths still count as
     attempts. *)
  let fast =
    { Platform.cluster_name = "fast"; procs = 4; gflops = 2.; switch = 0 }
  and slow =
    { Platform.cluster_name = "slow"; procs = 4; gflops = 1.; switch = 0 }
  in
  List.iter
    (fun (name, clusters, cluster, procs) ->
      let platform = Platform.make ~name clusters in
      let ptg = chain ~alpha:0.5 [ 8. ] in
      let schedules, attempts, wins, spans =
        packing_run ~platform [ (ptg, Array.make (Ptg.node_count ptg) 4) ]
      in
      Alcotest.(check int)
        (name ^ ": priced, the full width on the fast cluster")
        1 (candidates_priced ());
      Alcotest.(check int) (name ^ ": attempts") 4 attempts;
      Alcotest.(check int) (name ^ ": wins") 0 wins;
      Alcotest.(check int) (name ^ ": packing loops entered") 0 spans;
      let pl = Schedule.placement (List.hd schedules) 0 in
      Alcotest.(check int) (name ^ ": cluster") cluster pl.Schedule.cluster;
      check_placement name ~procs ~start:0. ~finish:3. pl)
    [
      ("fast-first", [ fast; slow ], 0, [| 2; 3 |]);
      ("slow-first", [ slow; fast ], 1, [| 6; 7 |]);
    ]

let test_mapper_packing_keeps_in_place_width () =
  (* A 4 s task on 2 processors, then an 8 s successor allocated 4 that
     receives 2.5 GB from it. At width 4 the transfer takes 10 s, and
     width 3 pays it too; on the predecessor's own 2 processors the
     in-place rule cancels it, so width 2 starts at 2 and wins. The
     data-ready bound must not rule out the narrower widths here:
     widths 3 and 2 are priced, width 1 cannot beat width 2. *)
  let tasks = [| seconds_task 4.; seconds_task 8. |] in
  let ptg =
    Builder.build ~id:0 ~name:"in-place" ~tasks ~edges:[ (0, 1, 2.5e9) ]
  in
  let schedules, attempts, wins, spans = packing_run [ (ptg, [| 2; 4 |]) ] in
  Alcotest.(check int) "priced" 4 (candidates_priced ());
  Alcotest.(check int) "attempts" 4 attempts;
  Alcotest.(check int) "wins" 1 wins;
  Alcotest.(check int) "packing loops entered" 1 spans;
  let sched = List.hd schedules in
  check_placement "predecessor" ~procs:[| 2; 3 |] ~start:0. ~finish:2.
    (Schedule.placement sched 0);
  check_placement "in place" ~procs:[| 2; 3 |] ~start:2. ~finish:6.
    (Schedule.placement sched 1)

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
      ignore (map_fresh ?release ?avail platform r [ (ptg, [| 1 |]) ]);
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
            (Invalid_argument "List_mapper.map: ill-formed task floor")
            (fun () ->
              ignore
                (map_fresh
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
    QCheck.(pair (int_range 0 2000) (int_range 0 2))
    (fun (seed, extra_idx) ->
      let platform = List.nth (Grid5000.all ()) (1 + extra_idx) in
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
            let schedules = map_fresh ~options ?avail platform ref_cluster apps in
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
              map_fresh ~options ?release ?pinned ?avail ?up ?task_floor
                platform ref_cluster apps)
        in
        if warm <> fresh then ok := false;
        if step = blackout && Result.is_ok fresh then ok := false
      done;
      !ok)

(* ---------- Exhaustive reference mapper ---------- *)

(* An unpruned Ready_tasks mapper: it places the tasks in the ready
   heap's order (highest bottom level, then application, then
   topological rank), and prices each one on every live cluster at its
   full width and, with packing, at every narrower width, keeping the
   best by [offer]'s exact order. A cluster's processors are re-sorted
   by (availability, id) for every task, and the in-place rule is
   always evaluated. Every float is the mapper's expression on the same
   operands in the same order ([Float.max]/[Float.min] equal the
   mapper's local ones on non-NaN floats, and [Task.time] its
   [Task.time_of_seq_into]), so the pruned mapper must return these
   placements bit for bit. *)
let exhaustive_map ~packing ?release ?avail ?up ?task_floor platform
    ref_cluster apps =
  let eps = Mcs_util.Floatx.eps in
  let apps = Array.of_list apps in
  let napps = Array.length apps in
  let nc = Platform.cluster_count platform in
  let release =
    match release with None -> Array.make napps 0. | Some r -> r
  in
  let avail =
    match avail with
    | None -> Array.make (Platform.total_procs platform) 0.
    | Some a -> Array.copy a
  in
  let groups =
    Array.init nc (fun k ->
        let first = Platform.first_proc platform k in
        List.filter
          (fun p -> match up with None -> true | Some u -> u.(p))
          (List.init (Platform.cluster platform k).Platform.procs (fun i ->
               first + i)))
  in
  let view k =
    let v = Array.of_list groups.(k) in
    Array.stable_sort
      (fun p q ->
        let c = Float.compare avail.(p) avail.(q) in
        if c <> 0 then c else Int.compare p q)
      v;
    v
  in
  let nic = Platform.nic_bandwidth platform
  and latency = Platform.latency platform in
  let placements =
    Array.map (fun (ptg, _) -> Array.make (Ptg.node_count ptg) None) apps
  in
  let bl =
    Array.map
      (fun (ptg, alloc) ->
        let n = Ptg.node_count ptg in
        let w =
          Array.init n (fun v ->
              Reference_cluster.exec_time ref_cluster ptg.Ptg.tasks.(v)
                ~procs:alloc.(v))
        in
        let bl = Array.make n 0. in
        Mcs_dag.Dag.fill_bottom_levels ptg.Ptg.dag w bl;
        bl)
      apps
  in
  let rank =
    Array.map
      (fun (ptg, _) ->
        let r = Array.make (Ptg.node_count ptg) 0 in
        Array.iteri (fun i v -> r.(v) <- i)
          (Mcs_dag.Dag.topological_order ptg.Ptg.dag);
        r)
      apps
  in
  let place i v =
    let ptg, alloc = apps.(i) in
    let preds =
      Array.map
        (fun (u, e) -> (Option.get placements.(i).(u), ptg.Ptg.edge_bytes.(e)))
        (Mcs_dag.Dag.preds ptg.Ptg.dag v)
    in
    let pred_finish (pu, _) = pu.Schedule.finish in
    if Ptg.is_virtual ptg v then begin
      let start =
        Array.fold_left (fun acc p -> Float.max acc (pred_finish p))
          release.(i) preds
      in
      { Schedule.node = v; cluster = 0; procs = [||]; start; finish = start }
    end
    else begin
      let floor =
        Float.max release.(i)
          (Float.max 0.
             (match task_floor with None -> 0. | Some f -> f.(i).(v)))
      in
      let cost k p' (pu, bytes) =
        if bytes <= 0. then 0.
        else
          latency
          +. bytes
             /. Float.min
                  (float_of_int
                     (Int.min (Int.max 1 (Array.length pu.Schedule.procs)) p')
                  *. nic)
                  (Mcs_taskmodel.Redistribution.route_bandwidth platform
                     ~src_cluster:pu.Schedule.cluster ~dst_cluster:k)
      in
      (* The data-ready time at width [p'] when the predecessors for
         which [skip] holds send nothing. *)
      let ready k p' skip =
        let total = ref 0. and last = ref 0. and senders = ref 0 in
        Array.iteri
          (fun j (pu, bytes) ->
            if bytes > 0. && not (skip j) then begin
              total := !total +. bytes;
              last := Float.max !last pu.Schedule.finish;
              incr senders
            end)
          preds;
        let aggregate =
          if !senders <= 1 then 0.
          else !last +. latency +. (!total /. (float_of_int p' *. nic))
        in
        let acc = ref 0. in
        Array.iteri
          (fun j p ->
            let c = if skip j then 0. else cost k p' p in
            acc := Float.max !acc (pred_finish p +. c))
          preds;
        Float.max aggregate !acc
      in
      let best = ref None in
      let offer ((finish, start, width, k, _, _) as c) =
        match !best with
        | Some (bf, bs, bw, bk, _, _)
          when not
                 (finish < bf
                 || finish = bf
                    && (start < bs
                       || start = bs && (width > bw || (width = bw && k < bk))))
          ->
          ()
        | _ -> best := Some c
      in
      let price k order p' =
        let exec =
          Task.time ptg.Ptg.tasks.(v)
            ~gflops:(Platform.cluster platform k).Platform.gflops ~procs:p'
        in
        let start0 =
          Float.max floor
            (Float.max (ready k p' (fun _ -> false)) avail.(order.(p' - 1)))
        in
        let fits = ref p' in
        while
          !fits < Array.length order && avail.(order.(!fits)) <= start0 +. eps
        do
          incr fits
        done;
        let lo = !fits - p' in
        let window =
          List.sort Int.compare (Array.to_list (Array.sub order lo p'))
        in
        let in_place j =
          let pu, bytes = preds.(j) in
          bytes > 0.
          && pu.Schedule.cluster = k
          && List.sort Int.compare (Array.to_list pu.Schedule.procs) = window
        in
        let start =
          Float.max floor
            (Float.max (ready k p' in_place)
               (Float.max 0. avail.(order.(!fits - 1))))
        in
        (start +. exec, start, p', k, lo, order)
      in
      for k = 0 to nc - 1 do
        let order = view k in
        if Array.length order > 0 then begin
          let needed =
            Int.min (Array.length order)
              (Reference_cluster.translate ref_cluster platform ~cluster:k
                 alloc.(v))
          in
          let ((full_finish, full_start, _, _, _, _) as full) =
            price k order needed
          in
          offer full;
          if packing then
            for p' = needed - 1 downto 1 do
              let ((finish, start, _, _, _, _) as c) = price k order p' in
              if start < full_start -. eps && finish <= full_finish +. eps
              then offer c
            done
        end
      done;
      let finish, start, width, k, lo, order = Option.get !best in
      let procs = Array.sub order lo width in
      Array.iter (fun p -> avail.(p) <- finish) procs;
      { Schedule.node = v; cluster = k; procs; start; finish }
    end
  in
  let pending =
    Array.map
      (fun (ptg, _) ->
        Array.init (Ptg.node_count ptg) (Mcs_dag.Dag.in_degree ptg.Ptg.dag))
      apps
  in
  let ready = ref [] in
  let push i v = ready := (-.bl.(i).(v), i, rank.(i).(v), v) :: !ready in
  Array.iteri
    (fun i p -> Array.iteri (fun v n -> if n = 0 then push i v) p)
    pending;
  while !ready <> [] do
    let ((_, i, _, v) as first) =
      List.fold_left
        (fun ((k, i, r, _) as m) ((k', i', r', _) as e) ->
          if k' < k || (k' = k && (i', r') < (i, r)) then e else m)
        (List.hd !ready) (List.tl !ready)
    in
    ready := List.filter (fun e -> e != first) !ready;
    placements.(i).(v) <- Some (place i v);
    let ptg, _ = apps.(i) in
    Array.iter
      (fun (w, _) ->
        pending.(i).(w) <- pending.(i).(w) - 1;
        if pending.(i).(w) = 0 then push i w)
      (Mcs_dag.Dag.succs ptg.Ptg.dag v)
  done;
  Array.to_list
    (Array.mapi
       (fun i (ptg, _) ->
         Schedule.make ~ptg ~placements:(Array.map Option.get placements.(i)))
       apps)

(* Platforms of one to three clusters whose speeds repeat, and PTGs of
   whole-second tasks with a few Amdahl fractions, on availabilities of
   whole seconds: finishes tie exactly, or differ by an ulp, often
   enough to reach every comparison the mapper's bounds make, their ε
   included. Every fifth PTG is a generated random one. *)
let qcheck_mapper_matches_exhaustive =
  QCheck.Test.make ~name:"the pruned mapper places as the exhaustive search"
    ~count:300 QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let clusters =
        List.init (Prng.int_in rng ~lo:1 ~hi:3) (fun k ->
            {
              Platform.cluster_name = Printf.sprintf "c%d" k;
              procs = Prng.int_in rng ~lo:1 ~hi:6;
              gflops = Prng.choose rng [| 1.; 1.; 1.5; 1.5; 2.; 3. |];
              switch = Prng.int rng 2;
            })
      in
      let platform = Platform.make ~name:"random" clusters in
      let total = Platform.total_procs platform in
      let ref_cluster = Reference_cluster.of_platform platform in
      let whole_ptg id =
        let n = Prng.int_in rng ~lo:1 ~hi:7 in
        let tasks =
          Array.init n (fun _ ->
              seconds_task
                ~alpha:(Prng.choose rng [| 0.; 0.; 0.1; 0.2; 0.25; 0.5; 1. |])
                (Prng.choose rng [| 1.; 2.; 3.; 4.; 5.; 6.; 8.; 10.; 12. |]))
        in
        let edges =
          List.concat
            (List.init n (fun a ->
                 List.filter_map
                   (fun b ->
                     if Prng.bernoulli rng ~p:0.35 then
                       Some (a, b, Prng.choose rng [| 0.; 0.; 1e8; 2.5e9 |])
                     else None)
                   (List.init (n - a - 1) (fun j -> a + j + 1))))
        in
        Builder.build ~id ~name:"whole" ~tasks ~edges
      in
      let apps =
        List.init (Prng.int_in rng ~lo:1 ~hi:4) (fun id ->
            let ptg =
              if Prng.int rng 5 = 0 then
                random_ptg ~tasks:(Prng.int_in rng ~lo:2 ~hi:8) (Prng.int rng 1_000_000)
              else whole_ptg id
            in
            (ptg, Array.init (Ptg.node_count ptg) (fun _ -> Prng.int_in rng ~lo:1 ~hi:6)))
      in
      let packing = Prng.bernoulli rng ~p:0.75 in
      let avail =
        if Prng.bool rng then None
        else
          Some
            (Array.init total (fun _ ->
                 float_of_int (Prng.choose rng [| 0; 0; 1; 2; 3; 4; 5; 7; 8 |])))
      in
      let up =
        if Prng.bool rng then None
        else begin
          let u = Array.init total (fun _ -> Prng.bernoulli rng ~p:0.7) in
          u.(Prng.int rng total) <- true;
          Some u
        end
      in
      let release =
        if Prng.bool rng then None
        else
          Some
            (Array.of_list
               (List.map (fun _ -> float_of_int (Prng.int rng 4)) apps))
      in
      let task_floor =
        if Prng.bool rng then None
        else
          Some
            (Array.of_list
               (List.map
                  (fun (ptg, _) ->
                    Array.init (Ptg.node_count ptg) (fun _ ->
                        if Prng.bernoulli rng ~p:0.3 then
                          float_of_int (Prng.int rng 6)
                        else 0.))
                  apps))
      in
      let options = { List_mapper.ordering = Ready_tasks; packing } in
      let mapped =
        if avail = None && up = None && task_floor = None then
          List_mapper.run ~options ?release platform ref_cluster apps
        else
          map_fresh ~options ?release ?avail ?up ?task_floor platform
            ref_cluster apps
      in
      render_schedules mapped
      = render_schedules
          (exhaustive_map ~packing ?release ?avail ?up ?task_floor platform
             ref_cluster apps))

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

(* Distinct rule ids present, in registry order. *)
let rule_ids diags =
  List.filter_map
    (fun r ->
      if List.exists (fun d -> d.Mcs_check.Diagnostic.rule = r) diags then
        Some (Mcs_check.Rule.id r)
      else None)
    Mcs_check.Rule.all

let check_rules what expected platform schedules =
  Alcotest.(check (list string)) what expected
    (rule_ids (Mcs_check.Check.analyze platform schedules))

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
        Alcotest.test_case "cap change served by replay" `Quick
          test_cache_cap_change;
        Alcotest.test_case "entry bound & clear" `Quick
          test_cache_entry_bound;
        Alcotest.test_case "binding guards" `Quick test_cache_binding_guards;
        Alcotest.test_case "release & fresh arena" `Quick
          test_cache_release_and_fresh_arena;
        Alcotest.test_case "allocation budget per increment" `Quick
          test_alloc_loop_budget;
        QCheck_alcotest.to_alcotest qcheck_cache_differential;
        QCheck_alcotest.to_alcotest qcheck_cache_request_mix;
        QCheck_alcotest.to_alcotest qcheck_loop_matches_two_pass;
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
        Alcotest.test_case "cluster bound skips a losing cluster" `Quick
          test_mapper_cluster_bound_skips_cluster;
        Alcotest.test_case "packing keeps the in-place width" `Quick
          test_mapper_packing_keeps_in_place_width;
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
        QCheck_alcotest.to_alcotest qcheck_mapper_matches_exhaustive;
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
