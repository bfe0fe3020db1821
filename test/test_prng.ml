open Mcs_prng

let test_determinism () =
  let a = Prng.create ~seed:123 and b = Prng.create ~seed:123 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.)) "same stream" (Prng.float a 1.) (Prng.float b 1.)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.float a 1. = Prng.float b 1. then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_copy () =
  let a = Prng.create ~seed:9 in
  ignore (Prng.float a 1.);
  let b = Prng.copy a in
  for _ = 1 to 50 do
    Alcotest.(check (float 0.)) "copy tracks" (Prng.float a 1.) (Prng.float b 1.)
  done

let test_split_independence () =
  let parent = Prng.create ~seed:5 in
  let child = Prng.split parent in
  (* The child must not replay the parent's stream. *)
  let collisions = ref 0 in
  for _ = 1 to 64 do
    if Prng.float parent 1. = Prng.float child 1. then incr collisions
  done;
  Alcotest.(check bool) "no lockstep" true (!collisions < 4)

let test_int_bounds () =
  let rng = Prng.create ~seed:11 in
  for _ = 1 to 10_000 do
    let v = Prng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int rng 0))

let test_int_covers_all_values () =
  let rng = Prng.create ~seed:12 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Prng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all values reached" true (Array.for_all Fun.id seen)

let test_int_in () =
  let rng = Prng.create ~seed:13 in
  for _ = 1 to 1000 do
    let v = Prng.int_in rng ~lo:(-3) ~hi:3 in
    Alcotest.(check bool) "in closed range" true (v >= -3 && v <= 3)
  done;
  Alcotest.(check int) "degenerate" 4 (Prng.int_in rng ~lo:4 ~hi:4);
  Alcotest.check_raises "inverted" (Invalid_argument "Prng.int_in: hi < lo")
    (fun () -> ignore (Prng.int_in rng ~lo:1 ~hi:0))

let test_float_bounds () =
  let rng = Prng.create ~seed:14 in
  for _ = 1 to 10_000 do
    let v = Prng.float rng 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0. && v < 2.5)
  done

let test_uniform_mean () =
  let rng = Prng.create ~seed:15 in
  let n = 50_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Prng.uniform rng ~lo:10. ~hi:20.
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 15" true (abs_float (mean -. 15.) < 0.1)

let test_bernoulli () =
  let rng = Prng.create ~seed:16 in
  Alcotest.(check bool) "p=0" false (Prng.bernoulli rng ~p:0.);
  Alcotest.(check bool) "p=1" true (Prng.bernoulli rng ~p:1.);
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bernoulli rng ~p:0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "freq near 0.3" true (abs_float (freq -. 0.3) < 0.02)

let test_exponential () =
  let rng = Prng.create ~seed:17 in
  let n = 50_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    let v = Prng.exponential rng ~mean:4. in
    Alcotest.(check bool) "non-negative" true (v >= 0.);
    acc := !acc +. v
  done;
  let mean = !acc /. float_of_int n in
  Alcotest.(check bool) "mean near 4" true (abs_float (mean -. 4.) < 0.15)

let test_choose () =
  let rng = Prng.create ~seed:18 in
  let arr = [| 1; 2; 3; 4; 5 |] in
  for _ = 1 to 100 do
    Alcotest.(check bool) "chosen from array" true
      (Array.mem (Prng.choose rng arr) arr)
  done

let qcheck_int_uniformish =
  QCheck.Test.make ~name:"Prng.int frequencies are roughly uniform" ~count:5
    QCheck.(int_range 0 18)
    (fun extra ->
      let bound = 2 + extra in
      let rng = Prng.create ~seed:(bound * 7 + 1) in
      let n = 20_000 in
      let counts = Array.make bound 0 in
      for _ = 1 to n do
        let v = Prng.int rng bound in
        counts.(v) <- counts.(v) + 1
      done;
      let expected = float_of_int n /. float_of_int bound in
      Array.for_all
        (fun c -> abs_float (float_of_int c -. expected) < 6. *. sqrt expected)
        counts)

let suite =
  [
    ( "prng",
      [
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
        Alcotest.test_case "copy" `Quick test_copy;
        Alcotest.test_case "split independence" `Quick test_split_independence;
        Alcotest.test_case "int bounds" `Quick test_int_bounds;
        Alcotest.test_case "int coverage" `Quick test_int_covers_all_values;
        Alcotest.test_case "int_in" `Quick test_int_in;
        Alcotest.test_case "float bounds" `Quick test_float_bounds;
        Alcotest.test_case "uniform mean" `Quick test_uniform_mean;
        Alcotest.test_case "bernoulli" `Quick test_bernoulli;
        Alcotest.test_case "exponential" `Quick test_exponential;
        Alcotest.test_case "choose" `Quick test_choose;
        QCheck_alcotest.to_alcotest qcheck_int_uniformish;
      ] );
  ]
