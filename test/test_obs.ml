open Mcs_obs
module Jsonx = Mcs_util.Jsonx

let test_span_nesting () =
  Obs.enable ();
  Obs.with_span "outer" (fun () ->
      Obs.with_span "inner" (fun () -> Unix.sleepf 0.002);
      Unix.sleepf 0.002);
  Obs.disable ();
  match Obs.spans () with
  | [ inner; outer ] ->
    Alcotest.(check string) "inner completes first" "inner" inner.Obs.name;
    Alcotest.(check string) "outer completes last" "outer" outer.Obs.name;
    Alcotest.(check int) "inner depth" 1 inner.Obs.depth;
    Alcotest.(check int) "outer depth" 0 outer.Obs.depth;
    Alcotest.(check bool) "inner starts within outer" true
      (inner.Obs.start_s >= outer.Obs.start_s -. 1e-9);
    Alcotest.(check bool) "inner shorter than outer" true
      (inner.Obs.dur_s <= outer.Obs.dur_s +. 1e-9);
    Alcotest.(check bool) "outer self time excludes inner" true
      (outer.Obs.self_s <= outer.Obs.dur_s -. inner.Obs.dur_s +. 1e-9);
    Alcotest.(check bool) "self time positive" true (outer.Obs.self_s > 0.)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

exception Boom

let test_span_exception_safe () =
  Obs.enable ();
  (try Obs.with_span "failing" (fun () -> raise Boom) with Boom -> ());
  Obs.disable ();
  match Obs.spans () with
  | [ s ] -> Alcotest.(check string) "recorded" "failing" s.Obs.name
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

let test_counter_monotonic () =
  Obs.enable ();
  let c = Obs.counter "test.count" in
  Alcotest.(check int) "zeroed by enable" 0 (Obs.value c);
  let prev = ref 0 in
  for _ = 1 to 100 do
    Obs.incr c;
    Alcotest.(check bool) "never decreases" true (Obs.value c > !prev);
    prev := Obs.value c
  done;
  Obs.incr ~by:5 c;
  Alcotest.(check int) "incr by" 105 (Obs.value c);
  Obs.record_max c 50;
  Alcotest.(check int) "record_max below keeps value" 105 (Obs.value c);
  Obs.record_max c 200;
  Alcotest.(check int) "record_max above raises value" 200 (Obs.value c);
  Alcotest.(check bool) "interned" true (c == Obs.counter "test.count");
  Alcotest.(check bool) "listed" true
    (List.mem_assoc "test.count" (Obs.counter_values ()));
  Obs.disable ();
  Obs.incr c;
  Alcotest.(check int) "incr is a no-op when disabled" 200 (Obs.value c)

let test_disabled_records_nothing () =
  Obs.enable ();
  Obs.disable ();
  let c = Obs.counter "test.disabled" in
  Obs.enter "dropped";
  Obs.incr c;
  Obs.leave ();
  ignore (Obs.with_span "dropped-too" (fun () -> 42));
  Alcotest.(check int) "no spans" 0 (List.length (Obs.spans ()));
  Alcotest.(check int) "no counts" 0 (Obs.value c)

(* The disabled probes must not allocate: this is what makes it safe to
   leave them on the mapper's per-candidate hot path. 10k iterations of
   the full probe set should stay within noise of zero minor words. *)
let test_disabled_probes_allocation_free () =
  Obs.enable ();
  Obs.disable ();
  let c = Obs.counter "test.hot" in
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Obs.enter "hot";
    Obs.incr c;
    Obs.record_max c 3;
    Obs.leave ()
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "allocated %.0f minor words over 10k probes" dw)
    true (dw < 1_000.)

(* A span's allocation is the exact minor-heap word count: 1,000 cons
   cells are 3,000 words. [Gc.counters] under-reports minor words on
   OCaml 5.1, so the recorder must not read it. *)
let test_span_alloc_words () =
  Obs.enable ();
  Obs.with_span "alloc" (fun () ->
      ignore (Sys.opaque_identity (List.init 1000 Fun.id)));
  Obs.disable ();
  match Obs.spans () with
  | [ s ] ->
    Alcotest.(check bool)
      (Printf.sprintf "%.0f words reported" s.Obs.alloc_w)
      true (s.Obs.alloc_w >= 3000.)
  | spans -> Alcotest.failf "expected 1 span, got %d" (List.length spans)

(* Scheduling with the recorder disabled must leave it empty: the
   instrumented pipeline records only when explicitly enabled. *)
let test_mapper_disabled_no_spans () =
  Obs.enable ();
  Obs.disable ();
  let platform = Mcs_platform.Grid5000.rennes () in
  let rng = Mcs_prng.Prng.create ~seed:3 in
  let ptgs =
    List.init 2 (fun id ->
        Mcs_ptg.Random_gen.generate ~id rng Mcs_ptg.Random_gen.default)
  in
  ignore
    (Mcs_sched.Pipeline.schedule_concurrent
       ~strategy:Mcs_sched.Strategy.Equal_share platform ptgs);
  Alcotest.(check int) "no spans" 0 (List.length (Obs.spans ()));
  Alcotest.(check int) "no tasks counted" 0
    (Obs.value (Obs.counter "mapper.tasks_mapped"))

let test_mapper_enabled_records_phases () =
  let platform = Mcs_platform.Grid5000.rennes () in
  let rng = Mcs_prng.Prng.create ~seed:3 in
  let ptgs =
    List.init 2 (fun id ->
        Mcs_ptg.Random_gen.generate ~id rng Mcs_ptg.Random_gen.default)
  in
  Obs.enable ();
  ignore
    (Mcs_sched.Pipeline.schedule_concurrent
       ~strategy:Mcs_sched.Strategy.Equal_share platform ptgs);
  Obs.disable ();
  let names = List.map (fun s -> s.Obs.name) (Obs.spans ()) in
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " recorded") true (List.mem phase names))
    [ "pipeline.schedule"; "pipeline.allocation"; "alloc.scrap";
      "mapper.run"; "mapper.prepare"; "mapper.place" ];
  Alcotest.(check bool) "tasks counted" true
    (Obs.value (Obs.counter "mapper.tasks_mapped") > 0)

let test_chrome_round_trip () =
  Obs.enable ();
  Obs.with_span "a" (fun () -> Obs.with_span "b" (fun () -> ()));
  Obs.incr ~by:3 (Obs.counter "test.rt");
  Obs.disable ();
  match Jsonx.parse (Export.chrome ()) with
  | Error m -> Alcotest.failf "chrome export does not parse: %s" m
  | Ok doc ->
    Alcotest.(check (option string)) "time unit" (Some "ms")
      (Jsonx.get_string "displayTimeUnit" doc);
    let events =
      match Jsonx.get_list "traceEvents" doc with
      | Some l -> l
      | None -> Alcotest.fail "no traceEvents"
    in
    let of_phase ph =
      List.filter
        (fun e -> Jsonx.get_string "ph" e = Some ph)
        events
    in
    let span_names =
      List.filter_map (Jsonx.get_string "name") (of_phase "X")
    in
    Alcotest.(check (list string)) "complete events" [ "b"; "a" ] span_names;
    match of_phase "C" with
    | [ counter ] ->
      Alcotest.(check (option string)) "counter name" (Some "test.rt")
        (Jsonx.get_string "name" counter);
      Alcotest.(check (option int)) "counter value" (Some 3)
        (Option.bind (Jsonx.member "args" counter) (Jsonx.get_int "value"))
    | l -> Alcotest.failf "expected 1 counter event, got %d" (List.length l)

let test_names_registry () =
  let no_dups l =
    List.length (List.sort_uniq compare l) = List.length l
  in
  Alcotest.(check bool) "phase names unique" true (no_dups Names.phase_names);
  Alcotest.(check bool) "counter names unique" true
    (no_dups Names.counter_names);
  List.iter
    (fun n ->
      match Names.describe n with
      | Some d -> Alcotest.(check bool) (n ^ " described") true (d <> "")
      | None -> Alcotest.failf "%s not described" n)
    (Names.phase_names @ Names.counter_names);
  Alcotest.(check (option string)) "unknown name" None
    (Names.describe "no.such.phase")

(* Counters are shared across domains (Atomic): concurrent increments
   must not lose updates and record_max must converge to the true
   maximum whatever the interleaving. *)
let test_counter_cross_domain () =
  Obs.enable ();
  let c = Obs.counter "test.parallel" in
  let m = Obs.counter "test.parallel_max" in
  let domains =
    Array.init 4 (fun k ->
        Domain.spawn (fun () ->
            for i = 1 to 10_000 do
              Obs.incr c;
              Obs.record_max m ((k * 10_000) + i)
            done))
  in
  Array.iter Domain.join domains;
  Obs.disable ();
  Alcotest.(check int) "no lost increments" 40_000 (Obs.value c);
  Alcotest.(check int) "record_max converges" 40_000 (Obs.value m)

let suite =
  [
    ( "obs",
      [
        Alcotest.test_case "span nesting and ordering" `Quick
          test_span_nesting;
        Alcotest.test_case "counters domain-safe" `Quick
          test_counter_cross_domain;
        Alcotest.test_case "span survives exceptions" `Quick
          test_span_exception_safe;
        Alcotest.test_case "counter monotonicity" `Quick
          test_counter_monotonic;
        Alcotest.test_case "disabled sink records nothing" `Quick
          test_disabled_records_nothing;
        Alcotest.test_case "disabled probes allocation-free" `Quick
          test_disabled_probes_allocation_free;
        Alcotest.test_case "span allocation words" `Quick
          test_span_alloc_words;
        Alcotest.test_case "mapper silent when disabled" `Quick
          test_mapper_disabled_no_spans;
        Alcotest.test_case "mapper phases when enabled" `Quick
          test_mapper_enabled_records_phases;
        Alcotest.test_case "chrome JSON round-trip" `Quick
          test_chrome_round_trip;
        Alcotest.test_case "names registry" `Quick test_names_registry;
      ] );
  ]
