open Mcs_util

let test_matches_list_map () =
  let l = List.init 100 Fun.id in
  Alcotest.(check (list int)) "same result"
    (List.map (fun x -> x * x) l)
    (Parmap.map (fun x -> x * x) l)

let test_order_preserved_multi_domain () =
  let l = List.init 500 Fun.id in
  Alcotest.(check (list int)) "ordered"
    (List.map (fun x -> x + 1) l)
    (Parmap.map ~domains:4 (fun x -> x + 1) l)

let test_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Parmap.map ~domains:4 Fun.id []);
  Alcotest.(check (list int)) "one" [ 7 ]
    (Parmap.map ~domains:4 (fun x -> x) [ 7 ])

exception Boom

let test_exception_propagates () =
  Alcotest.check_raises "raises" Boom (fun () ->
      ignore
        (Parmap.map ~domains:3
           (fun x -> if x = 13 then raise Boom else x)
           (List.init 50 Fun.id)))

(* Fail fast: once one item has failed, workers must stop picking up
   fresh items. The first item raises immediately while the remaining
   items sleep, so a worker that re-checked the failure flag after
   fetching its index skips its item; with the check taken before the
   fetch, all 64 items would run to completion. *)
let test_fail_fast_skips_remaining () =
  let started = Atomic.make 0 in
  (try
     ignore
       (Parmap.map ~domains:4
          (fun x ->
            Atomic.incr started;
            if x = 0 then raise Boom;
            Unix.sleepf 0.005;
            x)
          (List.init 64 Fun.id))
   with Boom -> ());
  let started = Atomic.get started in
  Alcotest.(check bool)
    (Printf.sprintf "started %d of 64 items" started)
    true
    (started < 64)

let test_domain_count_positive () =
  Alcotest.(check (list int)) "at least one" [ 2; 3 ]
    (Parmap.map ~domains:0 succ [ 1; 2 ])

let qcheck_parmap_equals_map =
  QCheck.Test.make ~name:"Parmap.map agrees with List.map" ~count:50
    QCheck.(pair (list small_int) (int_range 0 5))
    (fun (l, extra_domains) ->
      Parmap.map ~domains:(1 + extra_domains) (fun x -> (2 * x) - 1) l
      = List.map (fun x -> (2 * x) - 1) l)

let suite =
  [
    ( "util.parmap",
      [
        Alcotest.test_case "matches List.map" `Quick test_matches_list_map;
        Alcotest.test_case "order with domains" `Quick
          test_order_preserved_multi_domain;
        Alcotest.test_case "empty/singleton" `Quick test_empty_and_singleton;
        Alcotest.test_case "exception propagation" `Quick
          test_exception_propagates;
        Alcotest.test_case "fail fast skips remaining" `Quick
          test_fail_fast_skips_remaining;
        Alcotest.test_case "domain count" `Quick test_domain_count_positive;
        QCheck_alcotest.to_alcotest qcheck_parmap_equals_map;
      ] );
  ]
