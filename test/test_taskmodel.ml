open Mcs_taskmodel
module Prng = Mcs_prng.Prng

let check_float = Alcotest.(check (float 1e-9))

let stencil ?(data = 1e6) ?(alpha = 0.1) a =
  Task.make ~data ~complexity:(Stencil a) ~alpha

let test_flops_stencil () =
  check_float "a.d" 2e8 (Task.flops (stencil ~data:1e6 200.))

let test_flops_sort () =
  let t = Task.make ~data:1024. ~complexity:(Sort 2.) ~alpha:0. in
  check_float "a.d.log2 d" (2. *. 1024. *. 10.) (Task.flops t)

let test_flops_matmul () =
  let t = Task.make ~data:1e6 ~complexity:Matmul ~alpha:0. in
  check_float "d^1.5" 1e9 (Task.flops t)

let test_bytes () =
  check_float "8d" 8e6 (Task.bytes (stencil ~data:1e6 100.))

let test_seq_time () =
  let t = stencil ~data:1e6 100. in
  (* 1e8 flops on 2 GFlop/s = 0.05 s *)
  check_float "seq time" 0.05 (Task.seq_time t ~gflops:2.);
  (* Twice the speed halves the time. *)
  check_float "speed scaling"
    (Task.seq_time t ~gflops:1. /. 2.)
    (Task.seq_time t ~gflops:2.)

let test_amdahl () =
  let t = stencil ~alpha:0.25 100. in
  let seq = Task.seq_time t ~gflops:1. in
  check_float "p=1 is seq" seq (Task.time t ~gflops:1. ~procs:1);
  (* Amdahl limit: time(p) -> alpha * seq as p grows. *)
  let t1000 = Task.time t ~gflops:1. ~procs:1000 in
  Alcotest.(check bool) "bounded by alpha fraction" true
    (t1000 > 0.25 *. seq && t1000 < 0.26 *. seq);
  check_float "exact amdahl p=4"
    (seq *. (0.25 +. (0.75 /. 4.)))
    (Task.time t ~gflops:1. ~procs:4)

let test_speedup () =
  let t = stencil ~alpha:0. 100. in
  check_float "linear speedup when alpha=0" 8. (Task.speedup t ~procs:8);
  let t' = stencil ~alpha:1. 100. in
  check_float "no speedup when alpha=1" 1. (Task.speedup t' ~procs:8)

let test_zero_task () =
  Alcotest.(check bool) "is_zero" true (Task.is_zero Task.zero);
  check_float "no flops" 0. (Task.flops Task.zero);
  check_float "no bytes" 0. (Task.bytes Task.zero);
  check_float "no time" 0. (Task.time Task.zero ~gflops:1. ~procs:4)

let test_validation () =
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative data" true
    (raises (fun () -> Task.make ~data:(-1.) ~complexity:Matmul ~alpha:0.));
  Alcotest.(check bool) "alpha > 1" true
    (raises (fun () -> Task.make ~data:1. ~complexity:Matmul ~alpha:1.5));
  Alcotest.(check bool) "non-positive factor" true
    (raises (fun () -> Task.make ~data:1. ~complexity:(Stencil 0.) ~alpha:0.));
  Alcotest.(check bool) "procs < 1" true
    (raises (fun () -> Task.time (stencil 100.) ~gflops:1. ~procs:0))

let test_random_ranges () =
  let rng = Prng.create ~seed:3 in
  for _ = 1 to 500 do
    let t = Task.random rng ~class_:Task.Class_mixed in
    Alcotest.(check bool) "d in range" true
      (t.Task.data >= Task.d_min && t.Task.data <= Task.d_max);
    Alcotest.(check bool) "alpha in range" true
      (t.Task.alpha >= 0. && t.Task.alpha <= Task.alpha_max);
    match t.Task.complexity with
    | Stencil a | Sort a ->
      Alcotest.(check bool) "a in range" true (a >= Task.a_min && a <= Task.a_max)
    | Matmul -> ()
  done

let test_random_class_specific () =
  let rng = Prng.create ~seed:4 in
  for _ = 1 to 50 do
    (match (Task.random rng ~class_:Task.Class_stencil).Task.complexity with
    | Stencil _ -> ()
    | Sort _ | Matmul -> Alcotest.fail "wrong class for stencil");
    (match (Task.random rng ~class_:Task.Class_sort).Task.complexity with
    | Sort _ -> ()
    | Stencil _ | Matmul -> Alcotest.fail "wrong class for sort");
    match (Task.random rng ~class_:Task.Class_matmul).Task.complexity with
    | Matmul -> ()
    | Stencil _ | Sort _ -> Alcotest.fail "wrong class for matmul"
  done

let test_mixed_covers_classes () =
  let rng = Prng.create ~seed:5 in
  let st = ref 0 and so = ref 0 and mm = ref 0 in
  for _ = 1 to 300 do
    match (Task.random rng ~class_:Task.Class_mixed).Task.complexity with
    | Stencil _ -> incr st
    | Sort _ -> incr so
    | Matmul -> incr mm
  done;
  Alcotest.(check bool) "all classes drawn" true
    (!st > 50 && !so > 50 && !mm > 50)

let qcheck_amdahl_monotone =
  QCheck.Test.make ~name:"Amdahl time decreases with processors" ~count:300
    QCheck.(triple (float_range 0. 1.) (float_range 1e5 1e8) (int_range 0 99))
    (fun (alpha, data, extra_procs) ->
      let procs = 1 + extra_procs in
      let t = Task.make ~data ~complexity:Matmul ~alpha in
      Task.time t ~gflops:3. ~procs:(procs + 1)
      <= Task.time t ~gflops:3. ~procs +. 1e-12)

let qcheck_speedup_bounded =
  QCheck.Test.make ~name:"speedup is between 1 and p" ~count:300
    QCheck.(pair (float_range 0. 1.) (int_range 0 63))
    (fun (alpha, extra_procs) ->
      let procs = 1 + extra_procs in
      let t = Task.make ~data:1e6 ~complexity:Matmul ~alpha in
      let s = Task.speedup t ~procs in
      s >= 1. -. 1e-12 && s <= float_of_int procs +. 1e-9)

let test_redistribution_route_bandwidth () =
  let sophia = Mcs_platform.Grid5000.sophia () in
  let fabric k = Mcs_platform.Platform.fabric_bandwidth sophia k in
  check_float "intra cluster is the fabric" (fabric 0)
    (Redistribution.route_bandwidth sophia ~src_cluster:0 ~dst_cluster:0);
  (* Azur: 74 procs, half-bisection of GigE NICs. *)
  check_float "fabric scales with the cluster" (74. /. 2. *. 1.25e8) (fabric 0);
  (* Sophia clusters are on distinct switches: the 10G backbone binds. *)
  check_float "cross switch"
    (Mcs_platform.Platform.backbone_bandwidth sophia)
    (Redistribution.route_bandwidth sophia ~src_cluster:0 ~dst_cluster:1)

let test_redistribution_rate_streams () =
  let lille = Mcs_platform.Grid5000.lille () in
  let nic = Mcs_platform.Platform.nic_bandwidth lille in
  (* Few streams: NIC-bound; many streams: fabric-bound. *)
  check_float "2 streams" (2. *. nic)
    (Redistribution.rate lille ~src_cluster:0 ~dst_cluster:1 ~src_procs:2
       ~dst_procs:8);
  check_float "fabric cap"
    (Mcs_platform.Platform.link_bandwidth lille)
    (Redistribution.rate lille ~src_cluster:0 ~dst_cluster:1 ~src_procs:50
       ~dst_procs:50);
  Alcotest.(check bool) "bad procs" true
    (try
       ignore
         (Redistribution.rate lille ~src_cluster:0 ~dst_cluster:1 ~src_procs:0
            ~dst_procs:1);
       false
     with Invalid_argument _ -> true)

let test_redistribution_estimate () =
  let lille = Mcs_platform.Grid5000.lille () in
  let bytes = 1e9 in
  check_float "zero bytes" 0.
    (Redistribution.estimate lille ~src_cluster:0 ~src_procs:[| 0; 1 |]
       ~dst_cluster:1 ~dst_procs:[| 53 |] ~bytes:0.);
  check_float "same procs in place" 0.
    (Redistribution.estimate lille ~src_cluster:0 ~src_procs:[| 1; 0 |]
       ~dst_cluster:0 ~dst_procs:[| 0; 1 |] ~bytes);
  let t =
    Redistribution.estimate lille ~src_cluster:0 ~src_procs:[| 0 |]
      ~dst_cluster:1 ~dst_procs:[| 53 |] ~bytes
  in
  (* Single stream: bounded by one NIC. *)
  check_float "latency + transfer"
    (Mcs_platform.Platform.latency lille
    +. (bytes /. Mcs_platform.Platform.nic_bandwidth lille))
    t

let test_same_procs () =
  Alcotest.(check bool) "order-insensitive" true
    (Redistribution.same_procs [| 3; 1; 2 |] [| 1; 2; 3 |]);
  Alcotest.(check bool) "different size" false
    (Redistribution.same_procs [| 1 |] [| 1; 2 |]);
  Alcotest.(check bool) "different members" false
    (Redistribution.same_procs [| 1; 4 |] [| 1; 2 |]);
  Alcotest.(check bool) "empty" true (Redistribution.same_procs [||] [||]);
  Alcotest.(check bool) "equal prefix, permuted rest" true
    (Redistribution.same_procs [| 5; 9; 1; 2 |] [| 5; 9; 2; 1 |]);
  Alcotest.(check bool) "equal sums and xors, different members" false
    (Redistribution.same_procs [| 0; 3; 5; 6 |] [| 1; 2; 4; 7 |]);
  Alcotest.(check bool) "repeated members" false
    (Redistribution.same_procs [| 1; 1; 4; 4 |] [| 2; 2; 3; 3 |])

let suite =
  [
    ( "taskmodel.task",
      [
        Alcotest.test_case "flops stencil" `Quick test_flops_stencil;
        Alcotest.test_case "flops sort" `Quick test_flops_sort;
        Alcotest.test_case "flops matmul" `Quick test_flops_matmul;
        Alcotest.test_case "bytes" `Quick test_bytes;
        Alcotest.test_case "sequential time" `Quick test_seq_time;
        Alcotest.test_case "amdahl" `Quick test_amdahl;
        Alcotest.test_case "speedup" `Quick test_speedup;
        Alcotest.test_case "zero task" `Quick test_zero_task;
        Alcotest.test_case "validation" `Quick test_validation;
        Alcotest.test_case "random ranges" `Quick test_random_ranges;
        Alcotest.test_case "random class" `Quick test_random_class_specific;
        Alcotest.test_case "mixed coverage" `Quick test_mixed_covers_classes;
        QCheck_alcotest.to_alcotest qcheck_amdahl_monotone;
        QCheck_alcotest.to_alcotest qcheck_speedup_bounded;
      ] );
    ( "taskmodel.redistribution",
      [
        Alcotest.test_case "route bandwidth" `Quick
          test_redistribution_route_bandwidth;
        Alcotest.test_case "stream rates" `Quick test_redistribution_rate_streams;
        Alcotest.test_case "estimate" `Quick test_redistribution_estimate;
        Alcotest.test_case "same_procs" `Quick test_same_procs;
      ] );
  ]
