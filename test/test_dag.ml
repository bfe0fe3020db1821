open Mcs_dag

(* A diamond with a tail: 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, 3 -> 4. *)
let diamond () =
  Dag.of_edges ~n:5 [ (0, 1); (0, 2); (1, 3); (2, 3); (3, 4) ]

let test_counts () =
  let g = diamond () in
  Alcotest.(check int) "nodes" 5 (Dag.node_count g);
  Alcotest.(check int) "edges" 5 (Dag.edge_count g);
  Alcotest.(check int) "out 0" 2 (Array.length (Dag.succs g 0));
  Alcotest.(check int) "in 3" 2 (Dag.in_degree g 3)

let test_sources_sinks () =
  let g = diamond () in
  Alcotest.(check (list int)) "sources" [ 0 ] (Dag.sources g);
  Alcotest.(check (list int)) "sinks" [ 4 ] (Dag.sinks g);
  let iso = Dag.of_edges ~n:3 [] in
  Alcotest.(check (list int)) "isolated sources" [ 0; 1; 2 ] (Dag.sources iso);
  Alcotest.(check (list int)) "isolated sinks" [ 0; 1; 2 ] (Dag.sinks iso)

let check_topological g order =
  let pos = Array.make (Dag.node_count g) (-1) in
  Array.iteri (fun i v -> pos.(v) <- i) order;
  Alcotest.(check bool) "is permutation" true
    (Array.for_all (fun p -> p >= 0) pos);
  for e = 0 to Dag.edge_count g - 1 do
    let s, d = Dag.edge g e in
    Alcotest.(check bool) "edge respects order" true (pos.(s) < pos.(d))
  done

let test_topo () =
  let g = diamond () in
  check_topological g (Dag.topological_order g)

let test_cycle_detection () =
  (try
     ignore (Dag.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ]);
     Alcotest.fail "cycle not detected"
   with Dag.Cycle cyc ->
     Alcotest.(check bool) "cycle non-trivial" true (List.length cyc >= 3));
  try
    ignore (Dag.of_edges ~n:2 [ (1, 1) ]);
    Alcotest.fail "self loop not detected"
  with Dag.Cycle _ -> ()

let test_out_of_range () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Dag.of_edges ~n:2 [ (0, 5) ]);
       false
     with Invalid_argument _ -> true)

let test_duplicate_edges_collapse () =
  let g = Dag.of_edges ~n:2 [ (0, 1); (0, 1); (0, 1) ] in
  Alcotest.(check int) "one edge" 1 (Dag.edge_count g)

let test_edge_id_lookup () =
  let g = diamond () in
  (match Dag.edge_id g ~src:0 ~dst:2 with
  | Some e ->
    let s, d = Dag.edge g e in
    Alcotest.(check (pair int int)) "round trip" (0, 2) (s, d)
  | None -> Alcotest.fail "edge 0->2 missing");
  Alcotest.(check (option int)) "absent edge" None (Dag.edge_id g ~src:1 ~dst:2)

let test_levels () =
  let g = diamond () in
  let levels = Dag.depth_levels g in
  Alcotest.(check (array int)) "levels" [| 0; 1; 1; 2; 3 |] levels;
  Alcotest.(check int) "depth" 4 (Dag.depth g);
  Alcotest.(check int) "max width" 2 (Dag.max_width g);
  let members = Dag.level_members g in
  Alcotest.(check (array int)) "level 1 members" [| 1; 2 |] members.(1)

(* The longest path is the entry's bottom level. *)
let test_longest_path_weighted () =
  let g = diamond () in
  let node_weight = function 0 -> 1. | 1 -> 5. | 2 -> 2. | 3 -> 1. | _ -> 3. in
  let bl = Dag.bottom_levels g ~node_weight ~edge_weight:(fun _ -> 0.) in
  Alcotest.(check (float 1e-9)) "length" 10. bl.(0);
  Alcotest.(check (float 1e-9)) "through 1" 9. bl.(1)

let test_longest_path_edge_weights () =
  let g = diamond () in
  (* Make the 0->2 branch win through a heavy edge. *)
  let edge_weight e =
    match Dag.edge g e with (0, 2) -> 100. | _ -> 0.
  in
  let bl = Dag.bottom_levels g ~node_weight:(fun _ -> 1.) ~edge_weight in
  Alcotest.(check (float 1e-9)) "length" 104. bl.(0);
  Alcotest.(check (float 1e-9)) "through 2" 3. bl.(2)

let test_bottom_top_levels () =
  let g = diamond () in
  let w = function 0 -> 1. | 1 -> 5. | 2 -> 2. | 3 -> 1. | _ -> 3. in
  let bl = Dag.bottom_levels g ~node_weight:w ~edge_weight:(fun _ -> 0.) in
  let tl = Array.make 5 0. in
  Dag.fill_top_levels g (Array.init 5 w) tl;
  Alcotest.(check (float 1e-9)) "bl entry = cp" 10. bl.(0);
  Alcotest.(check (float 1e-9)) "bl exit" 3. bl.(4);
  Alcotest.(check (float 1e-9)) "tl entry" 0. tl.(0);
  Alcotest.(check (float 1e-9)) "tl exit" 7. tl.(4);
  (* On a critical-path node, tl + bl equals the critical path length. *)
  Alcotest.(check (float 1e-9)) "tl+bl on cp node" 10. (tl.(1) +. bl.(1))

let test_reachability () =
  let g = diamond () in
  Alcotest.(check bool) "0 reaches 4" true (Dag.reachable_from g 0).(4);
  Alcotest.(check bool) "self" true (Dag.reachable_from g 2).(2);
  let r = Dag.reachable_from g 1 in
  Alcotest.(check (array bool)) "from 1" [| false; true; false; true; true |] r

let test_to_dot () =
  let g = diamond () in
  let dot = Dag.to_dot ~graph_name:"g" g in
  Alcotest.(check bool) "mentions edge" true
    (let contains s sub =
       let n = String.length sub in
       let rec loop i =
         i + n <= String.length s && (String.sub s i n = sub || loop (i + 1))
       in
       loop 0
     in
     contains dot "n0 -> n1" && contains dot "digraph g")

let test_empty_graph () =
  let g = Dag.of_edges ~n:0 [] in
  Alcotest.(check int) "no nodes" 0 (Dag.node_count g);
  Alcotest.(check int) "depth" 0 (Dag.depth g);
  Alcotest.(check int) "width" 0 (Dag.max_width g);
  Alcotest.(check int) "no bottom levels" 0
    (Array.length
       (Dag.bottom_levels g ~node_weight:(fun _ -> 1.)
          ~edge_weight:(fun _ -> 0.)))

(* Random layered DAG generator for property tests. *)
let random_dag_gen =
  QCheck.Gen.(
    let* n = int_range 1 40 in
    let* density = float_range 0.05 0.9 in
    let* seed = int_range 0 10_000 in
    return (n, density, seed))

let build_random (n, density, seed) =
  let rng = Mcs_prng.Prng.create ~seed in
  let edges = ref [] in
  for s = 0 to n - 1 do
    for d = s + 1 to n - 1 do
      if Mcs_prng.Prng.bernoulli rng ~p:density then edges := (s, d) :: !edges
    done
  done;
  Dag.of_edges ~n !edges

let qcheck_topo_valid =
  QCheck.Test.make ~name:"topological order valid on random DAGs" ~count:100
    (QCheck.make random_dag_gen) (fun params ->
      let g = build_random params in
      let order = Dag.topological_order g in
      let pos = Array.make (Dag.node_count g) (-1) in
      Array.iteri (fun i v -> pos.(v) <- i) order;
      let ok = ref (Array.for_all (fun p -> p >= 0) pos) in
      for e = 0 to Dag.edge_count g - 1 do
        let s, d = Dag.edge g e in
        if pos.(s) >= pos.(d) then ok := false
      done;
      !ok)

let qcheck_levels_consistent =
  QCheck.Test.make ~name:"levels: every edge climbs at least one level"
    ~count:100 (QCheck.make random_dag_gen) (fun params ->
      let g = build_random params in
      let levels = Dag.depth_levels g in
      let ok = ref true in
      for e = 0 to Dag.edge_count g - 1 do
        let s, d = Dag.edge g e in
        if levels.(d) < levels.(s) + 1 then ok := false
      done;
      (* And some predecessor realises level - 1. *)
      for v = 0 to Dag.node_count g - 1 do
        if Dag.in_degree g v = 0 then begin
          if levels.(v) <> 0 then ok := false
        end
        else if
          not
            (Array.exists
               (fun (u, _) -> levels.(u) = levels.(v) - 1)
               (Dag.preds g v))
        then ok := false
      done;
      !ok)

let qcheck_bottom_levels_monotone =
  QCheck.Test.make
    ~name:"bottom level of a predecessor dominates its successors"
    ~count:100 (QCheck.make random_dag_gen) (fun params ->
      let g = build_random params in
      let bl =
        Dag.bottom_levels g
          ~node_weight:(fun v -> 1. +. float_of_int (v mod 3))
          ~edge_weight:(fun _ -> 0.5)
      in
      let ok = ref true in
      for e = 0 to Dag.edge_count g - 1 do
        let s, d = Dag.edge g e in
        if bl.(s) < bl.(d) then ok := false
      done;
      !ok)

(* Top levels by one pass over the predecessors in topological order:
   the closure formulation the level kernel replaced. *)
let top_levels g ~node_weight ~edge_weight =
  let tl = Array.make (Dag.node_count g) 0. in
  Array.iter
    (fun v ->
      Array.iter
        (fun (u, e) ->
          let via = tl.(u) +. node_weight u +. edge_weight e in
          if via > tl.(v) then tl.(v) <- via)
        (Dag.preds g v))
    (Dag.topological_order g);
  tl

let qcheck_level_repair_bit_identical =
  QCheck.Test.make
    ~name:"bottom/top level repair ≡ full recomputation after weight changes"
    ~count:100 (QCheck.make random_dag_gen) (fun params ->
      let g = build_random params in
      let n = Dag.node_count g in
      let rng = Mcs_prng.Prng.create ~seed:(1 + (n * 31)) in
      let w =
        Array.init n (fun _ -> Mcs_prng.Prng.uniform rng ~lo:0.1 ~hi:9.)
      in
      (* The closure passes at zero edge weight are the reference. *)
      let same a levels =
        let ok = ref true in
        for u = 0 to n - 1 do
          if not (Float.equal a.(u) levels.(u)) then ok := false
        done;
        !ok
      in
      let reference () =
        let nw v = w.(v) and ew _ = 0. in
        ( Dag.bottom_levels g ~node_weight:nw ~edge_weight:ew,
          top_levels g ~node_weight:nw ~edge_weight:ew )
      in
      (* Stale contents must not leak into a full pass. *)
      let bl = Array.make n Float.nan and tl = Array.make n Float.nan in
      Dag.fill_bottom_levels g w bl;
      Dag.fill_top_levels g w tl;
      let bl0, tl0 = reference () in
      let ok = ref (same bl bl0 && same tl tl0) in
      let dirty = Bytes.make n '\000' in
      (* A run of single-node weight changes, each repaired in place and
         compared bit for bit against a from-scratch pass — decreases
         mimic the allocation loop, increases stress the other
         direction of the max folds. *)
      for _ = 1 to 20 do
        let v = Mcs_prng.Prng.int rng n in
        w.(v) <-
          w.(v) *. (if Mcs_prng.Prng.bernoulli rng ~p:0.7 then 0.8 else 1.3);
        Dag.repair_levels g w ~changed:v ~dirty ~bl ~tl;
        let bl', tl' = reference () in
        if not (same bl bl' && same tl tl') then ok := false;
        (* The repair must leave the scratch all-zero. *)
        if Bytes.exists (fun c -> c <> '\000') dirty then ok := false
      done;
      !ok)

(* The longest path through [v] is its top level plus its bottom
   level, so the longest path of the graph, the largest bottom level, is
   their largest sum. *)
let qcheck_longest_path_is_max =
  QCheck.Test.make
    ~name:"longest path equals max over nodes of tl + node weight + bl"
    ~count:100 (QCheck.make random_dag_gen) (fun params ->
      let g = build_random params in
      let w v = 1. +. float_of_int (v mod 5) in
      let ew _ = 0.25 in
      let bl = Dag.bottom_levels g ~node_weight:w ~edge_weight:ew in
      let tl = top_levels g ~node_weight:w ~edge_weight:ew in
      let longest = Array.fold_left Float.max 0. bl in
      let max_combined = ref 0. in
      for v = 0 to Dag.node_count g - 1 do
        max_combined := Float.max !max_combined (tl.(v) +. bl.(v))
      done;
      abs_float (longest -. !max_combined) < 1e-9)

let suite =
  [
    ( "dag",
      [
        Alcotest.test_case "counts" `Quick test_counts;
        Alcotest.test_case "sources/sinks" `Quick test_sources_sinks;
        Alcotest.test_case "topological order" `Quick test_topo;
        Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
        Alcotest.test_case "out of range" `Quick test_out_of_range;
        Alcotest.test_case "duplicate edges" `Quick test_duplicate_edges_collapse;
        Alcotest.test_case "edge ids" `Quick test_edge_id_lookup;
        Alcotest.test_case "levels" `Quick test_levels;
        Alcotest.test_case "longest path (nodes)" `Quick
          test_longest_path_weighted;
        Alcotest.test_case "longest path (edges)" `Quick
          test_longest_path_edge_weights;
        Alcotest.test_case "bottom/top levels" `Quick test_bottom_top_levels;
        Alcotest.test_case "reachability" `Quick test_reachability;
        Alcotest.test_case "dot export" `Quick test_to_dot;
        Alcotest.test_case "empty graph" `Quick test_empty_graph;
        QCheck_alcotest.to_alcotest qcheck_topo_valid;
        QCheck_alcotest.to_alcotest qcheck_levels_consistent;
        QCheck_alcotest.to_alcotest qcheck_bottom_levels_monotone;
        QCheck_alcotest.to_alcotest qcheck_level_repair_bit_identical;
        QCheck_alcotest.to_alcotest qcheck_longest_path_is_max;
      ] );
  ]
