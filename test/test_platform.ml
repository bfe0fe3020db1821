open Mcs_platform

let check_float = Alcotest.(check (float 1e-6))

(* Section 2's derived figures are strong end-to-end checks of Table 1. *)
let test_paper_totals () =
  let expected =
    [ ("Lille", 99, 20.2); ("Nancy", 167, 6.1); ("Rennes", 229, 36.8);
      ("Sophia", 180, 34.7) ]
  in
  List.iter2
    (fun platform (name, procs, het) ->
      Alcotest.(check string) "site name" name (Platform.name platform);
      Alcotest.(check int) "site procs" procs (Platform.total_procs platform);
      Alcotest.(check (float 0.05))
        (name ^ " heterogeneity %")
        het
        (100. *. Platform.heterogeneity platform))
    (Grid5000.all ()) expected

let test_switch_layout () =
  (* Lille and Rennes share one switch; Nancy and Sophia do not. *)
  Alcotest.(check int) "lille" 1 (Platform.switch_count (Grid5000.lille ()));
  Alcotest.(check int) "rennes" 1 (Platform.switch_count (Grid5000.rennes ()));
  Alcotest.(check int) "nancy" 2 (Platform.switch_count (Grid5000.nancy ()));
  Alcotest.(check int) "sophia" 3 (Platform.switch_count (Grid5000.sophia ()));
  let nancy = Grid5000.nancy () in
  Alcotest.(check bool) "different switches" false
    (Platform.same_switch nancy 0 1);
  let lille = Grid5000.lille () in
  Alcotest.(check bool) "same switch" true (Platform.same_switch lille 0 2)

let test_total_power () =
  let lille = Grid5000.lille () in
  let manual = (53. *. 3.647) +. (20. *. 4.311) +. (26. *. 4.384) in
  check_float "aggregate power" manual (Platform.total_power lille);
  check_float "cluster power" (53. *. 3.647) (Platform.cluster_power lille 0)

let test_speeds () =
  let rennes = Grid5000.rennes () in
  check_float "min" 3.364 (Platform.min_speed rennes);
  check_float "max" 4.603 (Platform.max_speed rennes)

let test_proc_numbering () =
  let lille = Grid5000.lille () in
  Alcotest.(check int) "first of cluster 0" 0 (Platform.first_proc lille 0);
  Alcotest.(check int) "first of cluster 1" 53 (Platform.first_proc lille 1);
  Alcotest.(check int) "first of cluster 2" 73 (Platform.first_proc lille 2);
  Alcotest.(check int) "proc 0" 0 (Platform.cluster_of_proc lille 0);
  Alcotest.(check int) "proc 52" 0 (Platform.cluster_of_proc lille 52);
  Alcotest.(check int) "proc 53" 1 (Platform.cluster_of_proc lille 53);
  Alcotest.(check int) "proc 98" 2 (Platform.cluster_of_proc lille 98);
  check_float "speed of proc 53" 4.311 (Platform.proc_speed lille 53);
  Alcotest.(check bool) "out of range" true
    (try
       ignore (Platform.cluster_of_proc lille 99);
       false
     with Invalid_argument _ -> true)

let test_by_name () =
  (match Grid5000.by_name "RENNES" with
  | Ok p ->
    Alcotest.(check string) "case-insensitive" "Rennes" (Platform.name p)
  | Error m -> Alcotest.fail m);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " resolves") true
        (Result.is_ok (Grid5000.by_name name)))
    Grid5000.names;
  Alcotest.(check (result reject string))
    "unknown site names every accepted one"
    (Error "unknown site: mars (lille|nancy|rennes|sophia|grid)")
    (Result.map ignore (Grid5000.by_name "mars"))

let test_make_validation () =
  let c name procs gflops switch =
    { Platform.cluster_name = name; procs; gflops; switch }
  in
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "empty" true
    (raises (fun () -> Platform.make ~name:"x" []));
  Alcotest.(check bool) "zero procs" true
    (raises (fun () -> Platform.make ~name:"x" [ c "a" 0 1. 0 ]));
  Alcotest.(check bool) "negative speed" true
    (raises (fun () -> Platform.make ~name:"x" [ c "a" 4 (-1.) 0 ]));
  Alcotest.(check bool) "negative switch" true
    (raises (fun () -> Platform.make ~name:"x" [ c "a" 4 1. (-1) ]));
  Alcotest.(check bool) "zero bandwidth" true
    (raises (fun () ->
         Platform.make ~name:"x" ~link_bandwidth:0. [ c "a" 4 1. 0 ]))

let test_describe () =
  let s = Platform.describe (Grid5000.sophia ()) in
  let contains sub =
    let n = String.length sub in
    let rec loop i =
      i + n <= String.length s && (String.sub s i n = sub || loop (i + 1))
    in
    loop 0
  in
  Alcotest.(check bool) "mentions clusters" true
    (contains "Azur" && contains "Helios" && contains "Sol")

let qcheck_cluster_of_proc_consistent =
  QCheck.Test.make ~name:"cluster_of_proc inverts first_proc ranges"
    ~count:100
    QCheck.(int_range 0 228)
    (fun p ->
      let rennes = Grid5000.rennes () in
      let k = Platform.cluster_of_proc rennes p in
      let first = Platform.first_proc rennes k in
      let size = (Platform.cluster rennes k).Platform.procs in
      p >= first && p < first + size)

let suite =
  [
    ( "platform",
      [
        Alcotest.test_case "paper totals & heterogeneity" `Quick
          test_paper_totals;
        Alcotest.test_case "switch layout" `Quick test_switch_layout;
        Alcotest.test_case "total power" `Quick test_total_power;
        Alcotest.test_case "speeds" `Quick test_speeds;
        Alcotest.test_case "processor numbering" `Quick test_proc_numbering;
        Alcotest.test_case "by_name" `Quick test_by_name;
        Alcotest.test_case "validation" `Quick test_make_validation;
        Alcotest.test_case "describe" `Quick test_describe;
        QCheck_alcotest.to_alcotest qcheck_cluster_of_proc_consistent;
      ] );
  ]
