open Mcs_metrics

let check_float = Alcotest.(check (float 1e-9))

let test_slowdown () =
  check_float "no perturbation" 1. (Metrics.slowdown ~own:10. ~multi:10.);
  check_float "5x delay" 0.2 (Metrics.slowdown ~own:10. ~multi:50.);
  (* Degenerate makespans saturate to the neutral 1 instead of raising:
     one empty-PTG draw must not abort a whole sweep. *)
  check_float "zero own saturates" 1. (Metrics.slowdown ~own:0. ~multi:1.);
  check_float "zero multi saturates" 1. (Metrics.slowdown ~own:1. ~multi:0.);
  check_float "nan saturates" 1. (Metrics.slowdown ~own:Float.nan ~multi:1.);
  check_float "inf saturates" 1.
    (Metrics.slowdown ~own:Float.infinity ~multi:1.)

let test_degenerate_apps_skipped () =
  (* A degenerate application is skipped, leaving the others' dispersion
     untouched... *)
  let own = [| 10.; 10.; 0. |] and multi = [| 20.; 40.; 30. |] in
  check_float "degenerate app skipped" 0.25
    (Metrics.unfairness_of_makespans ~own ~multi);
  (* ...and an all-degenerate population is (vacuously) fair. *)
  check_float "all degenerate" 0.
    (Metrics.unfairness_of_makespans ~own:[| 0.; Float.nan |]
       ~multi:[| 1.; 1. |]);
  check_float "empty is fair" 0. (Metrics.unfairness [||])

let test_all_degenerate_saturates () =
  (* Regression: every shape of an all-degenerate population must
     saturate to exactly 0.0 — never NaN, never an exception — so one
     pathological draw cannot poison a sweep's aggregate. *)
  check_float "empty arrays" 0.
    (Metrics.unfairness_of_makespans ~own:[||] ~multi:[||]);
  check_float "all zero own" 0.
    (Metrics.unfairness_of_makespans ~own:[| 0.; 0.; 0. |]
       ~multi:[| 1.; 2.; 3. |]);
  check_float "all zero multi" 0.
    (Metrics.unfairness_of_makespans ~own:[| 1.; 2. |] ~multi:[| 0.; 0. |]);
  check_float "all nan" 0.
    (Metrics.unfairness_of_makespans
       ~own:[| Float.nan; Float.nan |]
       ~multi:[| Float.nan; Float.nan |]);
  check_float "all infinite" 0.
    (Metrics.unfairness_of_makespans
       ~own:[| Float.infinity; Float.neg_infinity |]
       ~multi:[| 1.; 1. |]);
  check_float "mixed degeneracies" 0.
    (Metrics.unfairness_of_makespans
       ~own:[| 0.; Float.nan; Float.infinity |]
       ~multi:[| 1.; 1.; 0. |])

let test_average_slowdown () =
  (* Deviations are taken from the average slowdown, 0.75 here. *)
  check_float "around avg 0.75" 0.5 (Metrics.unfairness [| 1.; 0.5 |])

let test_paper_worked_example () =
  (* Section 7: 8 PTGs with slowdown 1 and 2 with slowdown 0.2 give an
     average of 0.84 and an unfairness of 8(1-0.84) + 2(0.84-0.2) = 2.56. *)
  let slowdowns = [| 1.; 1.; 1.; 1.; 1.; 1.; 1.; 1.; 0.2; 0.2 |] in
  check_float "unfairness 2.56" 2.56 (Metrics.unfairness slowdowns)

let test_unfairness_zero_when_equal () =
  check_float "uniform slowdowns are fair" 0.
    (Metrics.unfairness [| 0.5; 0.5; 0.5 |])

let test_unfairness_of_makespans () =
  let own = [| 10.; 10. |] and multi = [| 20.; 40. |] in
  (* slowdowns 0.5 and 0.25, avg 0.375, unfairness 0.25. *)
  check_float "composition" 0.25 (Metrics.unfairness_of_makespans ~own ~multi);
  Alcotest.(check bool) "length mismatch" true
    (try
       ignore (Metrics.unfairness_of_makespans ~own ~multi:[| 1. |]);
       false
     with Invalid_argument _ -> true)

let test_relative_makespan () =
  check_float "best gets 1" 1. (Metrics.relative_makespan 5. ~best:5.);
  check_float "double" 2. (Metrics.relative_makespan 10. ~best:5.);
  Alcotest.(check bool) "bad best" true
    (try
       ignore (Metrics.relative_makespan 1. ~best:0.);
       false
     with Invalid_argument _ -> true)

let qcheck_unfairness_nonneg_and_bounded =
  QCheck.Test.make
    ~name:"unfairness is non-negative and at most 2n x max deviation"
    ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 20) (float_range 0.01 1.))
    (fun l ->
      let a = Array.of_list l in
      let u = Metrics.unfairness a in
      u >= 0. && u <= 2. *. float_of_int (Array.length a))

let qcheck_unfairness_translation_insensitive =
  QCheck.Test.make
    ~name:"unfairness only depends on dispersion (shift invariance)"
    ~count:200
    QCheck.(
      pair
        (list_of_size (QCheck.Gen.int_range 2 10) (float_range 0.1 0.5))
        (float_range 0. 0.4))
    (fun (l, shift) ->
      let a = Array.of_list l in
      let b = Array.map (fun x -> x +. shift) a in
      abs_float (Metrics.unfairness a -. Metrics.unfairness b) < 1e-9)

let suite =
  [
    ( "metrics",
      [
        Alcotest.test_case "slowdown" `Quick test_slowdown;
        Alcotest.test_case "average slowdown" `Quick test_average_slowdown;
        Alcotest.test_case "paper worked example" `Quick
          test_paper_worked_example;
        Alcotest.test_case "uniform is fair" `Quick
          test_unfairness_zero_when_equal;
        Alcotest.test_case "from makespans" `Quick test_unfairness_of_makespans;
        Alcotest.test_case "degenerate apps skipped" `Quick
          test_degenerate_apps_skipped;
        Alcotest.test_case "all-degenerate saturates to zero" `Quick
          test_all_degenerate_saturates;
        Alcotest.test_case "relative makespan" `Quick test_relative_makespan;
        QCheck_alcotest.to_alcotest qcheck_unfairness_nonneg_and_bounded;
        QCheck_alcotest.to_alcotest qcheck_unfairness_translation_insensitive;
      ] );
  ]
