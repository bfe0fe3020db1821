(* Benchmark & reproduction harness.

   - `dune exec bench/main.exe` runs everything: Table 1, Figures 1-5,
     the extra experiments X1-X9 (see DESIGN.md section 5), the online
     and serve throughput artefacts and the pipeline phase baseline.
   - `dune exec bench/main.exe -- fig3` runs a single artefact: an id
     of the experiment registry (Mcs_experiments.Artefact: table1,
     fig1..fig5, x1..x9) or online, serve, pipeline.
   - The MCS_RUNS environment variable scales the number of scenario
     combinations per point (the paper uses 25).
   - `dune exec bench/main.exe -- compare REF.json CUR.json` is the CI
     gate over the BENCH_pipeline.json and BENCH_serve.json baselines. *)

module E = Mcs_experiments
module Strategy = Mcs_sched.Strategy

let section title =
  let bar = String.make 72 '=' in
  Printf.printf "%s\n%s\n%s\n\n" bar title bar

let print_tables tables = List.iter Mcs_util.Table.print tables

(* ---------- Online engine throughput ---------- *)

(* The events/s the online sweep's peak must clear, from
   MCS_ONLINE_EVENTS_FLOOR (unset: no floor). Forced with MCS_RUNS,
   before the first heading, so a bad value prints nothing to stdout.
   NaN would clear every comparison, so only a finite value passes. *)
let events_floor =
  lazy
    (match Sys.getenv_opt "MCS_ONLINE_EVENTS_FLOOR" with
    | None -> None
    | Some s -> (
      match float_of_string_opt s with
      | Some v when Float.is_finite v && v >= 0. -> Some v
      | Some _ | None ->
        invalid_arg
          (Printf.sprintf
             "MCS_ONLINE_EVENTS_FLOOR must be a finite number >= 0, got %S" s)))

(* Events/sec and rescheduling cost of the event-driven online engine
   (lib/online) on Poisson-arrival scenarios of growing size. Each row
   aggregates the engine's own counters with wall-clock time: the
   rescheduling cost shows up both as remapped placements per reschedule
   and as the mean wall time of one reschedule. *)
let run_online () =
  let platform = Mcs_platform.Grid5000.rennes () in
  let policy = Mcs_online.Policy.make (Strategy.Weighted (Strategy.Work, 0.7)) in
  let table =
    Mcs_util.Table.create ~title:"online engine (WPS-work, Poisson mean 30 s)"
      ~header:
        [
          "apps"; "events"; "events/s"; "reschedules"; "remap/resched";
          "unchanged/remapped"; "alloc h/r/m"; "wall"; "wall/resched";
        ]
  in
  let peak_rate = ref 0. in
  List.iter
    (fun count ->
      let rng = Mcs_prng.Prng.create ~seed:(97 + count) in
      let ptgs =
        List.init count (fun id ->
            Mcs_ptg.Random_gen.generate ~id rng Mcs_ptg.Random_gen.default)
      in
      let release = E.Workload.releases rng ~count ~mean:30. in
      let apps = List.mapi (fun i ptg -> (ptg, release.(i))) ptgs in
      (* Best of three runs: the engine is deterministic, so the spread
         is scheduler/cache noise and the minimum wall is the honest
         cost — it is also what keeps the CI floor below stable. *)
      let runs =
        List.init 3 (fun _ ->
            let t0 = Unix.gettimeofday () in
            let r = Mcs_online.Engine.run ~policy platform apps in
            (r, Unix.gettimeofday () -. t0))
      in
      let r, wall =
        List.fold_left
          (fun (br, bw) (r, w) -> if w < bw then (r, w) else (br, bw))
          (List.hd runs) (List.tl runs)
      in
      let s = r.Mcs_online.Engine.stats in
      (* The remap-ceiling counter is only computed while tracing: one
         more, traced run reads it. *)
      let unchanged =
        Mcs_obs.Obs.enable ();
        ignore (Mcs_online.Engine.run ~policy platform apps);
        Mcs_obs.Obs.disable ();
        Mcs_obs.Obs.value (Mcs_obs.Obs.counter "online.remap_unchanged")
      in
      let ev = s.Mcs_online.Engine.events_processed in
      let resched = s.Mcs_online.Engine.reschedules in
      let rate = float_of_int ev /. wall in
      if rate > !peak_rate then peak_rate := rate;
      Mcs_util.Table.add_row table
        [
          string_of_int count;
          string_of_int ev;
          Printf.sprintf "%.0f" rate;
          string_of_int resched;
          Printf.sprintf "%.1f"
            (float_of_int s.Mcs_online.Engine.remapped_tasks
            /. float_of_int (max 1 resched));
          Printf.sprintf "%d/%d" unchanged s.Mcs_online.Engine.remapped_tasks;
          Printf.sprintf "%d/%d/%d" s.Mcs_online.Engine.alloc_hits
            s.Mcs_online.Engine.alloc_rescales s.Mcs_online.Engine.alloc_misses;
          Printf.sprintf "%.1f ms" (wall *. 1e3);
          Printf.sprintf "%.2f ms" (wall *. 1e3 /. float_of_int (max 1 resched));
        ])
    [ 2; 4; 6; 8; 10; 16 ];
  Mcs_util.Table.print table;
  (* One malleable run at mid scale prices the resize machinery: the
     same scenario as the count-8 row, plus grow/shrink preemptions on
     a 10 s grid. *)
  (let count = 8 in
   let rng = Mcs_prng.Prng.create ~seed:(97 + count) in
   let ptgs =
     List.init count (fun id ->
         Mcs_ptg.Random_gen.generate ~id rng Mcs_ptg.Random_gen.default)
   in
   let release = E.Workload.releases rng ~count ~mean:30. in
   let apps = List.mapi (fun i ptg -> (ptg, release.(i))) ptgs in
   let policy =
     Mcs_online.Policy.make
       ~malleability:
         {
           Mcs_sched.Malleability.default with
           Mcs_sched.Malleability.quantum = 10.;
         }
       (Strategy.Weighted (Strategy.Work, 0.7))
   in
   let t0 = Unix.gettimeofday () in
   let r = Mcs_online.Engine.run ~policy platform apps in
   let wall = Unix.gettimeofday () -. t0 in
   let s = r.Mcs_online.Engine.stats in
   Printf.printf
     "malleable (8 apps, 10 s quantum): %d resizes, %d events, %.1f ms \
      wall\n\n%!"
     s.Mcs_online.Engine.resizes s.Mcs_online.Engine.events_processed
     (wall *. 1e3));
  (* Regression floor for CI: the peak events/s of the sweep must clear
     MCS_ONLINE_EVENTS_FLOOR when set (the committed CI value assumes
     the allocation cache; see DESIGN.md section 14). *)
  Option.iter
    (fun floor_rate ->
      if !peak_rate < floor_rate then begin
        Printf.eprintf "online: peak %.0f events/s below floor %.0f\n"
          !peak_rate floor_rate;
        exit 1
      end;
      Printf.printf "online: peak %.0f events/s clears floor %.0f\n\n%!"
        !peak_rate floor_rate)
    (Lazy.force events_floor)

(* ---------- Baseline files (BENCH_pipeline.json, BENCH_serve.json) ---------- *)

module Obs = Mcs_obs.Obs
module Export = Mcs_obs.Export
module Names = Mcs_obs.Names
module Jsonx = Mcs_util.Jsonx

(* The one reader of a baseline file: the writer's read-back and both
   sides of [compare]. A file that does not parse stops the run. *)
let load_json path =
  match Jsonx.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok doc -> doc
  | Error m ->
    Printf.eprintf "%s does not parse: %s\n" path m;
    exit 2

(* The names a baseline lists under [key]: the phases of a profile
   section, or the counters. *)
let names key doc =
  match Jsonx.member key doc with
  | Some (Jsonx.Arr rows) -> List.filter_map (Jsonx.get_string "name") rows
  | Some (Jsonx.Obj kvs) -> List.map fst kvs
  | Some _ | None -> []

(* The spans recorded since the last [Obs.enable], one row per phase. *)
let phase_rows () =
  Jsonx.Arr
    (List.map
       (fun (r : Export.row) ->
         Jsonx.Obj
           [
             ("name", Jsonx.Str r.Export.phase);
             ("calls", Jsonx.Num (float_of_int r.Export.calls));
             ("total_s", Jsonx.Num r.Export.total_s);
             ("self_s", Jsonx.Num r.Export.self_s);
             ("alloc_words", Jsonx.Num r.Export.alloc_w);
           ])
       (Export.profile_rows ()))

(* The recorder's [phases] and [counters] fields. *)
let profile () =
  [
    ("phases", phase_rows ());
    ( "counters",
      Jsonx.Obj
        (List.map
           (fun (name, v) -> (name, Jsonx.Num (float_of_int v)))
           (Obs.counter_values ())) );
  ]

(* Writes [fields] as the baseline [path], reads the file back and
   checks that it lists every name of [required] under its key: the CI
   smoke steps rely on the exit code. *)
let write_baseline path ~required fields =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Jsonx.encode (Jsonx.Obj fields));
      output_char oc '\n');
  let doc = load_json path in
  List.iter
    (fun (key, wanted) ->
      let present = names key doc in
      match List.filter (fun n -> not (List.mem n present)) wanted with
      | [] -> ()
      | missing ->
        Printf.eprintf "%s: %s misses %s\n" path key
          (String.concat " " missing);
        exit 1)
    required;
  Printf.printf "wrote %s (%s)\n\n%!" path
    (String.concat ", "
       (List.map
          (fun (key, _) ->
            Printf.sprintf "%d %s" (List.length (names key doc)) key)
          required))

(* ---------- Serving engine (serve table + BENCH_serve.json) ---------- *)

module Service = Mcs_serve.Service
module Admission = Mcs_serve.Admission
module Serve_stats = Mcs_serve.Stats

(* Poisson stream at mean 1 s virtual inter-arrival: dense enough that
   hundreds of applications are in service at once — the serving
   regime, not the paper's sparse offline one. *)
let serve_workload count seed =
  let rng = Mcs_prng.Prng.create ~seed in
  let ptgs =
    List.init count (fun id ->
        Mcs_ptg.Random_gen.generate ~id rng Mcs_ptg.Random_gen.default)
  in
  let release = E.Workload.releases rng ~count ~mean:1. in
  List.mapi (fun i ptg -> (ptg, release.(i))) ptgs

let serve_config ~shards ~mode =
  {
    Service.default_config with
    Service.shards;
    mode;
    admission = { Admission.default with Admission.batch_window = 5. };
  }

(* Sharding sweep in real multi-domain mode: sustained submission and
   event throughput plus virtual-time response percentiles. *)
let run_serve () =
  let platform = Mcs_platform.Grid5000.grid () in
  let count = 300 in
  let apps = serve_workload count 23 in
  let table =
    Mcs_util.Table.create
      ~title:
        "serving engine (grid, 300 apps, Poisson mean 1 s, window 5 s, \
         least-work router)"
      ~header:
        [
          "shards"; "mode"; "subs/s"; "events/s"; "p50 resp"; "p99 resp";
          "peak active"; "minor GCs"; "wall";
        ]
  in
  (* Minor collections and minor words per row, from [Gc.quick_stat]
     deltas. In OCaml 5.1 both are process-wide, so they include every
     shard domain: each of those collections is a stop-the-world barrier
     across all of them, a cost no Obs span can see. *)
  let row ~shards ~mode ~label =
    let gc0 = Gc.quick_stat () in
    let r = Service.run_stream (serve_config ~shards ~mode) platform apps in
    let gc1 = Gc.quick_stat () in
    let minors = gc1.Gc.minor_collections - gc0.Gc.minor_collections in
    let minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words in
    if r.Service.admitted <> count then begin
      Printf.eprintf "serve: %d of %d admitted\n" r.Service.admitted count;
      exit 1
    end;
    let p p_ = Serve_stats.percentile r.Service.responses ~p:p_ in
    Mcs_util.Table.add_row table
      [
        string_of_int shards;
        label;
        Printf.sprintf "%.0f"
          (float_of_int r.Service.admitted /. r.Service.wall_s);
        Printf.sprintf "%.0f" (float_of_int r.Service.events /. r.Service.wall_s);
        Printf.sprintf "%.0f s" (p 0.50);
        Printf.sprintf "%.0f s" (p 0.99);
        string_of_int r.Service.peak_active;
        string_of_int minors;
        Printf.sprintf "%.1f s" r.Service.wall_s;
      ];
    (r, minors, minor_words)
  in
  ignore (row ~shards:1 ~mode:Service.Domains ~label:"domains");
  ignore (row ~shards:2 ~mode:Service.Domains ~label:"domains");
  let r4, minors4, minor_words4 =
    row ~shards:4 ~mode:Service.Domains ~label:"domains"
  in
  Mcs_util.Table.print table;
  (* Baseline profile in the inline fallback: spans stay on the calling
     domain, so serve.run/pickup/step appear with meaningful self
     times. The summary row gates non-zero sustained throughput. *)
  Obs.enable ();
  let ri =
    Service.run_stream
      (serve_config ~shards:4 ~mode:Service.Inline)
      platform apps
  in
  Obs.disable ();
  if ri.Service.admitted <> count || r4.Service.wall_s <= 0. then begin
    Printf.eprintf "serve: degenerate baseline run\n";
    exit 1
  end;
  let p p_ = Serve_stats.percentile r4.Service.responses ~p:p_ in
  write_baseline "BENCH_serve.json"
    ~required:[ ("phases", [ "serve.run"; "serve.pickup"; "serve.step" ]) ]
    ([
       ("schema", Jsonx.Str "mcs-bench-serve/1");
       ("site", Jsonx.Str "grid");
       ("apps", Jsonx.Num (float_of_int count));
       ("seed", Jsonx.Num 23.);
       ("shards", Jsonx.Num 4.);
       ("window_s", Jsonx.Num 5.);
     ]
    @ profile ()
    @ [
        ( "summary",
          Jsonx.Obj
            [
              ( "submissions_per_s",
                Jsonx.Num
                  (float_of_int r4.Service.admitted /. r4.Service.wall_s) );
              ( "events_per_s",
                Jsonx.Num (float_of_int r4.Service.events /. r4.Service.wall_s)
              );
              ("p50_response_s", Jsonx.Num (p 0.50));
              ("p99_response_s", Jsonx.Num (p 0.99));
              ("peak_active", Jsonx.Num (float_of_int r4.Service.peak_active));
              ("minor_collections", Jsonx.Num (float_of_int minors4));
              ("minor_words", Jsonx.Num minor_words4);
            ] );
      ])

(* ---------- Pipeline phase baseline (BENCH_pipeline.json) ---------- *)

(* One profiled offline evaluation, plain, faulted and malleable online
   runs and an inline serve run: between them they exercise every phase
   and counter registered in [Mcs_obs.Names], which the written file
   must list. The aggregated per-phase self-times and the counters
   become the committed BENCH_pipeline.json baseline. *)
let emit_pipeline_baseline () =
  let platform = Mcs_platform.Grid5000.rennes () in
  let ref_cluster = Mcs_sched.Reference_cluster.of_platform platform in
  let seed = 11 in
  let rng = Mcs_prng.Prng.create ~seed in
  let ptgs =
    List.init 6 (fun id ->
        Mcs_ptg.Random_gen.generate ~id rng Mcs_ptg.Random_gen.default)
  in
  Obs.enable ();
  ignore (E.Runner.evaluate platform ptgs [ Strategy.Equal_share ]);
  let apps = List.mapi (fun i p -> (p, 15. *. float_of_int i)) ptgs in
  let policy = Mcs_online.Policy.make Strategy.Equal_share in
  ignore (Mcs_online.Engine.run ~policy platform apps);
  (* A short faulted run exercises the online.fault phase and the fault
     counters (kills, retries, released processors) so the committed
     baseline covers every registered name. *)
  let faults =
    Mcs_fault.Fault.generate ~seed platform
      {
        Mcs_fault.Fault.default with
        Mcs_fault.Fault.mttf = 2000.;
        mttr = 120.;
        task_fail_p = 0.05;
        horizon = 600.;
      }
  in
  ignore (Mcs_online.Engine.run ~policy ~faults platform apps);
  (* A malleable run (tight resize grid, default triggers) enters the
     online.resize phase and executes actual grow/shrink operations so
     the resize counter is covered too. *)
  let malleable_policy =
    Mcs_online.Policy.make
      ~malleability:
        {
          Mcs_sched.Malleability.default with
          Mcs_sched.Malleability.quantum = 10.;
        }
      Strategy.Equal_share
  in
  ignore (Mcs_online.Engine.run ~policy:malleable_policy platform apps);
  (* A two-shard inline serve run covers the serve.* phases and
     counters; inline keeps every span on this domain's recorder. *)
  ignore
    (Service.run_stream
       { (serve_config ~shards:2 ~mode:Service.Inline) with
         Service.admission =
           { Admission.default with Admission.capacity = 2 };
       }
       platform apps);
  Obs.disable ();
  let profile = profile () in
  (* Second profile at mapper-dominated scale, 20 applications x 100
     tasks, where the mapper's former per-task re-sorting dominated
     (DESIGN.md section 10): only the mapping step is inside the
     recorder window, so [large_phases] isolates its cost. *)
  let large =
    let rng = Mcs_prng.Prng.create ~seed:3 in
    List.init 20 (fun id ->
        Mcs_ptg.Random_gen.generate ~id rng
          { Mcs_ptg.Random_gen.default with tasks = 100 })
    |> List.map (fun ptg ->
           let a =
             Mcs_sched.Allocation.allocate ref_cluster platform ~beta:0.05 ptg
           in
           (ptg, a.Mcs_sched.Allocation.procs))
  in
  Obs.enable ();
  ignore (Mcs_sched.List_mapper.run platform ref_cluster large);
  Obs.disable ();
  write_baseline "BENCH_pipeline.json"
    ~required:
      [
        ("phases", Names.phase_names);
        ("counters", Names.counter_names);
        ("large_phases", [ "mapper.place" ]);
      ]
    ([
       ("schema", Jsonx.Str "mcs-bench-pipeline/1");
       ("site", Jsonx.Str "rennes");
       ("apps", Jsonx.Num (float_of_int (List.length ptgs)));
       ("seed", Jsonx.Num (float_of_int seed));
       ("strategy", Jsonx.Str (Strategy.name Strategy.Equal_share));
     ]
    @ profile
    @ [
        ( "large_workload",
          Jsonx.Obj
            [
              ("apps", Jsonx.Num 20.);
              ("tasks", Jsonx.Num 100.);
              ("seed", Jsonx.Num 3.);
              ("beta", Jsonx.Num 0.05);
            ] );
        ("large_phases", phase_rows ());
      ])

(* ---------- Baseline comparison (CI regression gate) ---------- *)

(* Self times under a millisecond are timer noise on shared runners, so
   phases below the floor in the reference profile are not gated. *)
let compare_floor_s = 1e-3
let compare_tolerance = 0.30

(* Counters that repeat exactly from run to run of the baseline
   emitters (checked across repeated [pipeline] and [serve] runs), so
   [compare] requires equality rather than a tolerance. The engine's
   counters pin the handled-event stream, and the replay's its
   solver's work. *)
let exact_counters =
  [
    "mapper.tasks_mapped";
    "mapper.packing_attempts";
    "mapper.packing_wins";
    "mapper.candidates_priced";
    "mapper.avail_reorders";
    "alloc.calls";
    "alloc.increments";
    "alloc.cache.hits";
    "alloc.cache.rescales";
    "alloc.cache.misses";
    "online.remapped";
    "online.events";
    "online.reschedules";
    "online.kills";
    "online.retries";
    "online.resizes";
    "online.fault_events";
    "mapper.release";
    "sim.updates";
    "sim.rounds";
    "sim.links_visited";
    "sim.flows";
    "sim.events";
  ]

let self_times key doc =
  match Jsonx.get_list key doc with
  | None -> []
  | Some rows ->
    List.filter_map
      (fun row ->
        match (Jsonx.get_string "name" row, Jsonx.get_float "self_s" row) with
        | Some name, Some self -> Some (name, self)
        | _ -> None)
      rows

let run_compare ref_path cur_path =
  let ref_doc = load_json ref_path and cur_doc = load_json cur_path in
  let failures = ref 0 in
  let check_section key =
    let cur = self_times key cur_doc in
    List.iter
      (fun (name, ref_self) ->
        if ref_self >= compare_floor_s then
          match List.assoc_opt name cur with
          | None ->
            incr failures;
            Printf.printf "FAIL %s/%s: missing from %s\n" key name cur_path
          | Some cur_self ->
            let limit = ref_self *. (1. +. compare_tolerance) in
            if cur_self > limit then begin
              incr failures;
              Printf.printf
                "FAIL %s/%s: self time %.4f s exceeds %.4f s (ref %.4f s)\n"
                key name cur_self limit ref_self
            end
            else
              Printf.printf "ok   %s/%s: %.4f s (ref %.4f s)\n" key name
                cur_self ref_self)
      (self_times key ref_doc)
  in
  check_section "phases";
  check_section "large_phases";
  let counter key doc =
    match Jsonx.member "counters" doc with
    | Some (Jsonx.Obj kvs) -> (
      match List.assoc_opt key kvs with
      | Some (Jsonx.Num n) -> Some (int_of_float n)
      | Some _ | None -> None)
    | Some _ | None -> None
  in
  (* Exact work gate: these counters depend only on the code and the
     fixed baseline workloads, never on timing, so any difference from
     the reference means the build maps, allocates or remaps differently.
     A reference without one of them gates nothing on it, so it fails
     too. *)
  List.iter
    (fun key ->
      match (counter key ref_doc, counter key cur_doc) with
      | Some r, Some c when r = c ->
        Printf.printf "ok   counters/%s: %d\n" key c
      | Some r, Some c ->
        incr failures;
        Printf.printf "FAIL counters/%s: %d, reference %d\n" key c r
      | None, _ ->
        incr failures;
        Printf.printf "FAIL counters/%s: missing from %s\n" key ref_path
      | Some r, None ->
        incr failures;
        Printf.printf "FAIL counters/%s: missing from %s (reference %d)\n"
          key cur_path r)
    exact_counters;
  (* Cache-effectiveness gate: a build whose allocation cache never
     hits has silently fallen back to scratch allocation — that can
     hide inside the 30% wall-clock tolerance on fast runners, so the
     counters are checked directly. Only active when the reference
     profile itself exercised the cache. *)
  let served doc =
    match
      (counter "alloc.cache.hits" doc, counter "alloc.cache.rescales" doc)
    with
    | Some h, Some r -> Some (h + r)
    | _ -> None
  in
  (match (served ref_doc, served cur_doc) with
  | Some ref_served, cur_served when ref_served > 0 ->
    (match cur_served with
    | Some c when c > 0 ->
      Printf.printf "ok   counters/alloc.cache: %d served from cache\n" c
    | Some _ | None ->
      incr failures;
      Printf.printf
        "FAIL counters/alloc.cache: reference served %d allocations from \
         cache, current none\n"
        ref_served)
  | _ -> ());
  (* Same presence gate for malleability: a build whose resize machinery
     stopped firing would keep its wall-clock profile (skipped resizes
     are cheap) yet silently degrade to moldable execution. Only active
     when the reference profile itself executed resizes. *)
  (match (counter "online.resizes" ref_doc, counter "online.resizes" cur_doc)
   with
  | Some ref_resizes, cur_resizes when ref_resizes > 0 -> (
    match cur_resizes with
    | Some c when c > 0 ->
      Printf.printf "ok   counters/online.resizes: %d resizes executed\n" c
    | Some _ | None ->
      incr failures;
      Printf.printf
        "FAIL counters/online.resizes: reference executed %d resizes, \
         current none\n"
        ref_resizes)
  | _ -> ());
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end;
  Printf.printf
    "no phase regressed beyond %.0f%%, work counters identical\n"
    (100. *. compare_tolerance)

(* ---------- Experiment dispatch ---------- *)

(* The experiment registry's artefacts (by id only: the registry's
   aliases are the experiments CLI's), each run [runs] times per point,
   then the bench's own. *)
let artefacts =
  List.map
    (fun (a : E.Artefact.t) ->
      (a.id, a.title, fun runs -> print_tables (a.tables ~runs ())))
    E.Artefact.all
  @ [
      ( "online",
        "Online engine — event throughput and rescheduling cost",
        fun _ -> run_online () );
      ( "serve",
        "Serving engine — sharded multi-tenant throughput",
        fun _ -> run_serve () );
      ( "pipeline",
        "Pipeline phase baseline — every registered phase and counter",
        fun _ -> emit_pipeline_baseline () );
    ]

let find id =
  match List.find_opt (fun (i, _, _) -> i = id) artefacts with
  | Some a -> a
  | None ->
    prerr_endline
      ("unknown artefact " ^ id ^ "; use one of: "
      ^ String.concat " " (List.map (fun (i, _, _) -> i) artefacts));
    exit 2

let run_one runs (id, title, f) =
  section title;
  let t0 = Unix.gettimeofday () in
  f runs;
  Printf.printf "[%s done in %.1f s]\n\n%!" id (Unix.gettimeofday () -. t0)

(* Every id, the run count and the online floor are checked before the
   first heading. *)
let () =
  let runs () =
    try
      ignore (Lazy.force events_floor);
      E.Sweep.resolve_runs None
    with Invalid_argument m ->
      prerr_endline m;
      exit 2
  in
  match Array.to_list Sys.argv with
  | [ _; "compare"; ref_path; cur_path ] -> run_compare ref_path cur_path
  | _ :: "compare" :: _ ->
    prerr_endline "usage: bench compare REFERENCE.json CURRENT.json";
    exit 2
  | _ :: (_ :: _ as ids) ->
    let selected = List.map find ids in
    List.iter (run_one (runs ())) selected
  | [ _ ] | [] ->
    let runs = runs () in
    Printf.printf
      "Full reproduction run (MCS_RUNS=%d combinations per point; set \
       MCS_RUNS to scale).\n\n%!"
      runs;
    List.iter (run_one runs) artefacts
