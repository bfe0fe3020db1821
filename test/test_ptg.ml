open Mcs_ptg
module Dag = Mcs_dag.Dag
module Task = Mcs_taskmodel.Task
module Prng = Mcs_prng.Prng

let real_task seconds =
  Task.make ~data:(seconds *. 1e9) ~complexity:(Stencil 1.) ~alpha:0.5

(* Bytes on the edge [src -> dst]. *)
let edge_bytes ptg ~src ~dst =
  ptg.Ptg.edge_bytes.(Option.get (Dag.edge_id ptg.Ptg.dag ~src ~dst))

let test_builder_single_chain () =
  (* Already single entry/exit: no virtual node added. *)
  let tasks = [| real_task 1.; real_task 2. |] in
  let ptg = Builder.build ~id:0 ~name:"chain" ~tasks ~edges:[ (0, 1, 42.) ] in
  Alcotest.(check int) "nodes" 2 (Ptg.node_count ptg);
  Alcotest.(check int) "tasks" 2 (Ptg.task_count ptg);
  Alcotest.(check int) "entry" 0 (Ptg.entry ptg);
  Alcotest.(check int) "exit" 1 (Ptg.exit ptg);
  Alcotest.(check (float 0.)) "edge bytes" 42. (edge_bytes ptg ~src:0 ~dst:1)

let test_builder_adds_virtuals () =
  (* Two parallel tasks: needs both a virtual entry and a virtual exit. *)
  let tasks = [| real_task 1.; real_task 1. |] in
  let ptg = Builder.build ~id:1 ~name:"par" ~tasks ~edges:[] in
  Alcotest.(check int) "nodes" 4 (Ptg.node_count ptg);
  Alcotest.(check int) "real tasks" 2 (Ptg.task_count ptg);
  Alcotest.(check bool) "entry virtual" true (Ptg.is_virtual ptg (Ptg.entry ptg));
  Alcotest.(check bool) "exit virtual" true (Ptg.is_virtual ptg (Ptg.exit ptg));
  Alcotest.(check bool) "real not virtual" false (Ptg.is_virtual ptg 0)

let test_builder_merges_duplicates () =
  let tasks = [| real_task 1.; real_task 1. |] in
  let ptg =
    Builder.build ~id:2 ~name:"dup" ~tasks ~edges:[ (0, 1, 10.); (0, 1, 30.) ]
  in
  Alcotest.(check (float 0.)) "max volume kept" 30.
    (edge_bytes ptg ~src:0 ~dst:1)

let test_builder_rejects_empty () =
  Alcotest.(check bool) "no tasks" true
    (try
       ignore (Builder.build ~id:0 ~name:"x" ~tasks:[||] ~edges:[]);
       false
     with Invalid_argument _ -> true)

let test_work_and_width () =
  let tasks = [| real_task 1.; real_task 2.; real_task 3. |] in
  (* 0 -> {1, 2}: width 2 at level 1 (virtual exit not counted). *)
  let ptg =
    Builder.build ~id:3 ~name:"fork" ~tasks ~edges:[ (0, 1, 0.); (0, 2, 0.) ]
  in
  Alcotest.(check int) "width" 2 (Ptg.max_width ptg);
  Alcotest.(check (float 1.)) "work" 6e9 (Ptg.work ptg)

let test_critical_path_seq () =
  let tasks = [| real_task 1.; real_task 5.; real_task 2.; real_task 1. |] in
  (* 0 -> 1 -> 3 and 0 -> 2 -> 3; cp = 1 + 5 + 1 = 7 s at 1 GFlop/s. *)
  let ptg =
    Builder.build ~id:4 ~name:"diamond" ~tasks
      ~edges:[ (0, 1, 0.); (0, 2, 0.); (1, 3, 0.); (2, 3, 0.) ]
  in
  Alcotest.(check (float 1e-6)) "cp" 7. (Ptg.critical_path_seq ptg ~gflops:1.);
  Alcotest.(check (float 1e-6)) "cp scales" 3.5
    (Ptg.critical_path_seq ptg ~gflops:2.)

let test_create_validation () =
  let dag = Dag.of_edges ~n:2 [ (0, 1) ] in
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "task length" true
    (raises (fun () ->
         Ptg.create ~id:0 ~name:"bad" ~dag ~tasks:[| Task.zero |]
           ~edge_bytes:[| 0. |]));
  Alcotest.(check bool) "edge length" true
    (raises (fun () ->
         Ptg.create ~id:0 ~name:"bad" ~dag
           ~tasks:[| Task.zero; Task.zero |]
           ~edge_bytes:[||]));
  Alcotest.(check bool) "negative bytes" true
    (raises (fun () ->
         Ptg.create ~id:0 ~name:"bad" ~dag
           ~tasks:[| Task.zero; Task.zero |]
           ~edge_bytes:[| -1. |]));
  let two_sources = Dag.of_edges ~n:3 [ (0, 2); (1, 2) ] in
  Alcotest.(check bool) "multi source rejected" true
    (raises (fun () ->
         Ptg.create ~id:0 ~name:"bad" ~dag:two_sources
           ~tasks:[| Task.zero; Task.zero; Task.zero |]
           ~edge_bytes:[| 0.; 0. |]))

(* ---------- Random generator ---------- *)

let gen_params =
  QCheck.Gen.(
    let* tasks = int_range 5 60 in
    let* width = oneofl [ 0.2; 0.5; 0.8 ] in
    let* regularity = oneofl [ 0.2; 0.8 ] in
    let* density = oneofl [ 0.2; 0.8 ] in
    let* jump = oneofl [ 1; 2; 4 ] in
    let* seed = int_range 0 100_000 in
    return (tasks, width, regularity, density, jump, seed))

let make_random (tasks, width, regularity, density, jump, seed) =
  let rng = Prng.create ~seed in
  Random_gen.generate rng
    { Random_gen.tasks; width; regularity; density; jump;
      class_ = Task.Class_mixed }

let qcheck_random_task_count =
  QCheck.Test.make ~name:"random generator: exact real-task count" ~count:150
    (QCheck.make gen_params) (fun params ->
      let (tasks, _, _, _, _, _) = params in
      Ptg.task_count (make_random params) = tasks)

let qcheck_random_single_entry_exit =
  QCheck.Test.make ~name:"random generator: single entry and exit" ~count:150
    (QCheck.make gen_params) (fun params ->
      let ptg = make_random params in
      let dag = ptg.Ptg.dag in
      List.length (Dag.sources dag) = 1 && List.length (Dag.sinks dag) = 1)

let qcheck_random_parents =
  QCheck.Test.make
    ~name:"random generator: every real task below level 1 has a real parent"
    ~count:100 (QCheck.make gen_params) (fun params ->
      let ptg = make_random params in
      let dag = ptg.Ptg.dag in
      let ok = ref true in
      for v = 0 to Dag.node_count dag - 1 do
        if (not (Ptg.is_virtual ptg v)) && Dag.in_degree dag v = 0 then
          (* only possible if this is the unique source *)
          ok := !ok && Dag.sources dag = [ v ]
      done;
      !ok)

let test_width_parameter_effect () =
  (* Averaged over seeds, wide graphs must be wider than chain-like. *)
  let avg_width width =
    let acc = ref 0 in
    for seed = 0 to 19 do
      let rng = Prng.create ~seed in
      let ptg =
        Random_gen.generate rng
          { Random_gen.default with tasks = 50; width }
      in
      acc := !acc + Ptg.max_width ptg
    done;
    float_of_int !acc /. 20.
  in
  let narrow = avg_width 0.2 and wide = avg_width 0.8 in
  Alcotest.(check bool)
    (Printf.sprintf "width 0.8 (%.1f) > width 0.2 (%.1f)" wide narrow)
    true (wide > narrow +. 2.)

let test_jump_edges_skip_levels () =
  (* With jump = 4 some edge must span more than one precedence level
     for at least one seed. *)
  let found = ref false in
  for seed = 0 to 9 do
    let rng = Prng.create ~seed in
    let ptg =
      Random_gen.generate rng
        { Random_gen.default with tasks = 50; jump = 4; density = 0.8 }
    in
    let dag = ptg.Ptg.dag in
    let levels = Dag.depth_levels dag in
    for e = 0 to Dag.edge_count dag - 1 do
      let s, d = Dag.edge dag e in
      if levels.(d) - levels.(s) >= 4 then found := true
    done
  done;
  Alcotest.(check bool) "found a long edge" true !found

let test_random_validate_params () =
  let raises p =
    try
      Random_gen.validate p;
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "tasks" true
    (raises { Random_gen.default with tasks = 0 });
  Alcotest.(check bool) "width" true
    (raises { Random_gen.default with width = 0. });
  Alcotest.(check bool) "density" true
    (raises { Random_gen.default with density = 1.5 });
  Alcotest.(check bool) "jump" true
    (raises { Random_gen.default with jump = 0 });
  Alcotest.(check bool) "NaN width" true
    (raises { Random_gen.default with width = Float.nan });
  Alcotest.(check bool) "NaN regularity" true
    (raises { Random_gen.default with regularity = Float.nan });
  Alcotest.(check bool) "NaN density" true
    (raises { Random_gen.default with density = Float.nan })

(* ---------- Strassen ---------- *)

let test_strassen_shape () =
  let rng = Prng.create ~seed:1 in
  let ptg = Strassen.generate rng in
  Alcotest.(check int) "25 tasks" 25 (Ptg.task_count ptg);
  Alcotest.(check int) "27 nodes with virtuals" 27 (Ptg.node_count ptg);
  let dag = ptg.Ptg.dag in
  Alcotest.(check int) "single source" 1 (List.length (Dag.sources dag));
  Alcotest.(check int) "single sink" 1 (List.length (Dag.sinks dag))

let test_strassen_fixed_width () =
  (* All Strassen PTGs share the same shape: width is an invariant. *)
  let widths =
    List.init 10 (fun seed ->
        let rng = Prng.create ~seed in
        Ptg.max_width (Strassen.generate rng))
  in
  Alcotest.(check bool) "constant width" true
    (List.for_all (fun w -> w = List.hd widths) widths);
  Alcotest.(check int) "width is the 10 S-tasks" 10 (List.hd widths)

let test_strassen_mult_heavier_than_add () =
  let rng = Prng.create ~seed:2 in
  let ptg = Strassen.generate ~data:16e6 rng in
  (* Node 10 is P1 (a multiplication), node 0 is S1 (an addition). *)
  Alcotest.(check bool) "matmul dominates" true
    (Task.flops ptg.Ptg.tasks.(10) > 100. *. Task.flops ptg.Ptg.tasks.(0))

let test_strassen_explicit_data () =
  let rng = Prng.create ~seed:3 in
  let ptg = Strassen.generate ~data:5e6 rng in
  Alcotest.(check (float 0.)) "block size" 5e6 ptg.Ptg.tasks.(0).Task.data;
  Alcotest.(check bool) "rejects non-positive" true
    (try
       ignore (Strassen.generate ~data:0. (Prng.create ~seed:0));
       false
     with Invalid_argument _ -> true)

(* ---------- FFT ---------- *)

let test_fft_task_counts () =
  Alcotest.(check int) "4 points" 15 (Fft.task_count ~points:4);
  Alcotest.(check int) "8 points" 39 (Fft.task_count ~points:8);
  Alcotest.(check int) "16 points" 95 (Fft.task_count ~points:16);
  List.iter
    (fun points ->
      let rng = Prng.create ~seed:points in
      let ptg = Fft.generate ~points rng in
      Alcotest.(check int)
        (Printf.sprintf "generated %d-point count" points)
        (Fft.task_count ~points) (Ptg.task_count ptg))
    [ 4; 8; 16 ]

let test_fft_structure () =
  let rng = Prng.create ~seed:5 in
  let ptg = Fft.generate ~points:8 rng in
  let dag = ptg.Ptg.dag in
  Alcotest.(check int) "single source" 1 (List.length (Dag.sources dag));
  Alcotest.(check int) "single sink" 1 (List.length (Dag.sinks dag));
  (* Tree root (node 0) is the entry and is a real task. *)
  Alcotest.(check int) "entry is the tree root" 0 (Ptg.entry ptg);
  Alcotest.(check bool) "root is real" false (Ptg.is_virtual ptg 0);
  (* Butterfly levels all have [points] tasks. *)
  Alcotest.(check int) "max width" 8 (Ptg.max_width ptg)

let test_fft_per_level_costs_identical () =
  let rng = Prng.create ~seed:6 in
  let ptg = Fft.generate ~points:4 rng in
  let dag = ptg.Ptg.dag in
  let levels = Dag.depth_levels dag in
  (* Group real tasks by level: within one level all flops are equal. *)
  let by_level = Hashtbl.create 16 in
  for v = 0 to Dag.node_count dag - 1 do
    if not (Ptg.is_virtual ptg v) then begin
      let f = Task.flops ptg.Ptg.tasks.(v) in
      let existing =
        Option.value (Hashtbl.find_opt by_level levels.(v)) ~default:[]
      in
      Hashtbl.replace by_level levels.(v) (f :: existing)
    end
  done;
  Hashtbl.iter
    (fun _ flops ->
      List.iter
        (fun f ->
          Alcotest.(check (float 1e-6)) "same cost within level"
            (List.hd flops) f)
        flops)
    by_level

let test_fft_rejects_bad_points () =
  List.iter
    (fun points ->
      Alcotest.(check bool)
        (Printf.sprintf "points=%d rejected" points)
        true
        (try
           ignore (Fft.task_count ~points);
           false
         with Invalid_argument _ -> true))
    [ 0; 1; 3; 6; 12 ]

let qcheck_fft_acyclic_connected =
  QCheck.Test.make ~name:"FFT graphs: every node on a path entry->exit"
    ~count:20
    QCheck.(oneofl [ 4; 8; 16 ])
    (fun points ->
      let rng = Prng.create ~seed:points in
      let ptg = Fft.generate ~points rng in
      let dag = ptg.Ptg.dag in
      let from_entry = Dag.reachable_from dag (Ptg.entry ptg) in
      Array.for_all Fun.id from_entry
      &&
      let exit = Ptg.exit ptg in
      let ok = ref true in
      for v = 0 to Dag.node_count dag - 1 do
        if not (Dag.reachable_from dag v).(exit) then ok := false
      done;
      !ok)

let test_to_dot_ptg () =
  let rng = Prng.create ~seed:7 in
  let ptg = Strassen.generate rng in
  let dot = Ptg.to_dot ptg in
  Alcotest.(check bool) "dot contains label" true
    (String.length dot > 100)

(* [create] computes the strategies' γs once: they equal, bit for bit,
   the flops summed over the tasks and the widest level of real tasks
   recomputed from the graph. *)
let test_work_and_width_cached () =
  let recomputed ptg =
    let levels = Dag.depth_levels ptg.Ptg.dag in
    let counts = Array.make (Dag.depth ptg.Ptg.dag + 1) 0 in
    Array.iteri
      (fun v t ->
        if not (Task.is_zero t) then
          counts.(levels.(v)) <- counts.(levels.(v)) + 1)
      ptg.Ptg.tasks;
    ( Mcs_util.Floatx.sum (Array.map Task.flops ptg.Ptg.tasks),
      Array.fold_left max 0 counts )
  in
  List.iter
    (fun seed ->
      let rng = Prng.create ~seed in
      List.iter
        (fun (what, ptg) ->
          let work, width = recomputed ptg in
          Alcotest.(check bool)
            (Printf.sprintf "%s %d: work bit-equal" what seed)
            true
            (Float.equal work (Ptg.work ptg));
          Alcotest.(check int)
            (Printf.sprintf "%s %d: width" what seed)
            width (Ptg.max_width ptg))
        [
          ("random", Random_gen.generate rng Random_gen.default);
          ("fft", Fft.generate ~points:(4 lsl (seed mod 3)) rng);
          ("strassen", Strassen.generate rng);
        ])
    [ 1; 2; 3; 4; 5 ]

let suite =
  [
    ( "ptg.builder",
      [
        Alcotest.test_case "single chain" `Quick test_builder_single_chain;
        Alcotest.test_case "virtual entry/exit" `Quick
          test_builder_adds_virtuals;
        Alcotest.test_case "duplicate merge" `Quick
          test_builder_merges_duplicates;
        Alcotest.test_case "rejects empty" `Quick test_builder_rejects_empty;
      ] );
    ( "ptg.core",
      [
        Alcotest.test_case "work & width" `Quick test_work_and_width;
        Alcotest.test_case "work & width computed once" `Quick
          test_work_and_width_cached;
        Alcotest.test_case "sequential critical path" `Quick
          test_critical_path_seq;
        Alcotest.test_case "create validation" `Quick test_create_validation;
        Alcotest.test_case "dot export" `Quick test_to_dot_ptg;
      ] );
    ( "ptg.random",
      [
        QCheck_alcotest.to_alcotest qcheck_random_task_count;
        QCheck_alcotest.to_alcotest qcheck_random_single_entry_exit;
        QCheck_alcotest.to_alcotest qcheck_random_parents;
        Alcotest.test_case "width parameter" `Quick test_width_parameter_effect;
        Alcotest.test_case "jump edges" `Quick test_jump_edges_skip_levels;
        Alcotest.test_case "parameter validation" `Quick
          test_random_validate_params;
      ] );
    ( "ptg.strassen",
      [
        Alcotest.test_case "shape" `Quick test_strassen_shape;
        Alcotest.test_case "fixed width" `Quick test_strassen_fixed_width;
        Alcotest.test_case "mult vs add cost" `Quick
          test_strassen_mult_heavier_than_add;
        Alcotest.test_case "explicit data" `Quick test_strassen_explicit_data;
      ] );
    ( "ptg.fft",
      [
        Alcotest.test_case "task counts 15/39/95" `Quick test_fft_task_counts;
        Alcotest.test_case "structure" `Quick test_fft_structure;
        Alcotest.test_case "per-level costs" `Quick
          test_fft_per_level_costs_identical;
        Alcotest.test_case "bad points" `Quick test_fft_rejects_bad_points;
        QCheck_alcotest.to_alcotest qcheck_fft_acyclic_connected;
      ] );
  ]

(* ---------- Analysis ---------- *)

let test_analysis_fft () =
  let rng = Prng.create ~seed:21 in
  let ptg = Fft.generate ~points:8 rng in
  let a = Analysis.analyse ptg in
  Alcotest.(check int) "tasks" 39 a.Analysis.tasks;
  Alcotest.(check int) "width" 8 a.Analysis.max_width;
  Alcotest.(check bool) "parallelism between 1 and width" true
    (a.Analysis.avg_parallelism >= 1.
    && a.Analysis.avg_parallelism <= float_of_int a.Analysis.max_width);
  Alcotest.(check bool) "comm/comp positive" true (a.Analysis.comm_to_comp > 0.);
  (* Level widths sum to the task count. *)
  Alcotest.(check int) "level widths sum" 39
    (Array.fold_left ( + ) 0 a.Analysis.level_widths)

let test_analysis_consistency_random () =
  for seed = 0 to 9 do
    let rng = Prng.create ~seed in
    let ptg = Random_gen.generate rng Random_gen.default in
    let a = Analysis.analyse ptg in
    Alcotest.(check int) "tasks match" (Ptg.task_count ptg) a.Analysis.tasks;
    Alcotest.(check int) "width matches" (Ptg.max_width ptg)
      a.Analysis.max_width;
    Alcotest.(check (float 1.)) "work matches" (Ptg.work ptg)
      a.Analysis.total_work;
    Alcotest.(check bool) "cp <= work" true
      (a.Analysis.critical_path_flops <= a.Analysis.total_work +. 1.)
  done

let analysis_cases =
  ( "ptg.analysis",
    [
      Alcotest.test_case "fft report" `Quick test_analysis_fft;
      Alcotest.test_case "consistency" `Quick test_analysis_consistency_random;
    ] )

let suite = suite @ [ analysis_cases ]
