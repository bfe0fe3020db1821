open Mcs_util

let check_float = Alcotest.(check (float 1e-9))

let test_reserve_and_free () =
  let t = Timeline.create ~procs:2 in
  Timeline.reserve t ~proc:0 ~start:1. ~finish:3.;
  Alcotest.(check bool) "before" true (Timeline.is_free t ~proc:0 ~start:0. ~finish:1.);
  Alcotest.(check bool) "inside" false (Timeline.is_free t ~proc:0 ~start:2. ~finish:2.5);
  Alcotest.(check bool) "straddling" false
    (Timeline.is_free t ~proc:0 ~start:0.5 ~finish:1.5);
  Alcotest.(check bool) "after" true (Timeline.is_free t ~proc:0 ~start:3. ~finish:9.);
  Alcotest.(check bool) "other proc" true
    (Timeline.is_free t ~proc:1 ~start:0. ~finish:10.)

let test_reserve_overlap_rejected () =
  let t = Timeline.create ~procs:1 in
  Timeline.reserve t ~proc:0 ~start:1. ~finish:3.;
  Alcotest.(check bool) "overlap" true
    (try
       Timeline.reserve t ~proc:0 ~start:2. ~finish:4.;
       false
     with Invalid_argument _ -> true);
  (* Touching intervals are fine. *)
  Timeline.reserve t ~proc:0 ~start:3. ~finish:4.;
  Timeline.reserve t ~proc:0 ~start:0. ~finish:1.;
  List.iter
    (fun (start, finish) ->
      Alcotest.(check bool)
        (Printf.sprintf "[%g, %g) held" start finish)
        false
        (Timeline.is_free t ~proc:0 ~start ~finish))
    [ (0., 1.); (1., 3.); (3., 4.) ];
  Alcotest.(check bool) "free after the three" true
    (Timeline.is_free t ~proc:0 ~start:4. ~finish:9.)

let test_reserve_validation () =
  let t = Timeline.create ~procs:1 in
  let raises f =
    try
      f ();
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad proc" true
    (raises (fun () -> Timeline.reserve t ~proc:5 ~start:0. ~finish:1.));
  Alcotest.(check bool) "inverted" true
    (raises (fun () -> Timeline.reserve t ~proc:0 ~start:2. ~finish:1.));
  Alcotest.(check bool) "nan" true
    (raises (fun () -> Timeline.reserve t ~proc:0 ~start:nan ~finish:1.));
  Alcotest.(check bool) "create 0" true
    (raises (fun () -> ignore (Timeline.create ~procs:0)))

let test_find_slot_in_hole () =
  (* proc 0 busy [0, 10); proc 1 busy [2, 4): a 2-second single-proc
     task fits at 0 on proc 1. *)
  let t = Timeline.create ~procs:2 in
  Timeline.reserve t ~proc:0 ~start:0. ~finish:10.;
  Timeline.reserve t ~proc:1 ~start:2. ~finish:4.;
  (match Timeline.find_slot t ~count:1 ~duration:2. ~after:0. with
  | Some (start, procs) ->
    check_float "at zero" 0. start;
    Alcotest.(check (array int)) "on proc 1" [| 1 |] procs
  | None -> Alcotest.fail "no slot");
  (* A 3-second task does not fit in proc 1's initial hole. *)
  match Timeline.find_slot t ~count:1 ~duration:3. ~after:0. with
  | Some (start, procs) ->
    check_float "after the middle reservation" 4. start;
    Alcotest.(check (array int)) "on proc 1" [| 1 |] procs
  | None -> Alcotest.fail "no slot"

let test_find_slot_multi_proc () =
  let t = Timeline.create ~procs:3 in
  Timeline.reserve t ~proc:0 ~start:0. ~finish:5.;
  Timeline.reserve t ~proc:1 ~start:0. ~finish:8.;
  (* Two procs for 1 s: procs 2 is free now but we need two -> wait
     until 5 when proc 0 frees. *)
  match Timeline.find_slot t ~count:2 ~duration:1. ~after:0. with
  | Some (start, procs) ->
    check_float "at five" 5. start;
    Alcotest.(check (array int)) "procs 0 and 2" [| 0; 2 |] procs
  | None -> Alcotest.fail "no slot"

let test_find_slot_best_fit () =
  (* Both free at 3 and 4; best fit picks the one released later. *)
  let t = Timeline.create ~procs:2 in
  Timeline.reserve t ~proc:0 ~start:0. ~finish:3.;
  Timeline.reserve t ~proc:1 ~start:0. ~finish:4.;
  match Timeline.find_slot t ~count:1 ~duration:2. ~after:4. with
  | Some (start, procs) ->
    check_float "at four" 4. start;
    Alcotest.(check (array int)) "later-released proc" [| 1 |] procs
  | None -> Alcotest.fail "no slot"

let test_find_slot_best_fit_ties () =
  (* Procs 1 and 3 share the latest previous-reservation end (3.), the
     never-used procs 0 and 4 share the earliest (0.), and proc 2 sits
     in between. Best fit prefers late-released procs, breaking the
     ties by the lowest processor id. *)
  let t = Timeline.create ~procs:5 in
  Timeline.reserve t ~proc:1 ~start:0. ~finish:3.;
  Timeline.reserve t ~proc:3 ~start:1. ~finish:3.;
  Timeline.reserve t ~proc:2 ~start:0. ~finish:1.;
  (match Timeline.find_slot t ~count:2 ~duration:2. ~after:5. with
  | Some (start, procs) ->
    check_float "at five" 5. start;
    Alcotest.(check (array int)) "both late-released procs" [| 1; 3 |] procs
  | None -> Alcotest.fail "no slot");
  match Timeline.find_slot t ~count:4 ~duration:2. ~after:5. with
  | Some (start, procs) ->
    check_float "still at five" 5. start;
    Alcotest.(check (array int)) "tie among idle procs broken by id"
      [| 0; 1; 2; 3 |] procs
  | None -> Alcotest.fail "no slot"

let test_find_slot_subset_and_count () =
  let t = Timeline.create ~procs:4 in
  Alcotest.(check bool) "count too large" true
    (Timeline.find_slot t ~count:3 ~duration:1. ~after:0.
       ~procs_subset:[| 0; 1 |]
    = None);
  match
    Timeline.find_slot t ~count:2 ~duration:1. ~after:7.
      ~procs_subset:[| 2; 3 |]
  with
  | Some (start, procs) ->
    check_float "at release time" 7. start;
    Alcotest.(check (array int)) "subset respected" [| 2; 3 |] procs
  | None -> Alcotest.fail "no slot"

let qcheck_find_slot_is_free_and_earliest =
  QCheck.Test.make
    ~name:"find_slot returns a free window and no earlier candidate works"
    ~count:150
    QCheck.(quad (int_range 0 3) (int_range 0 19) (float_range 0.5 5.)
              (int_range 0 10_000))
    (fun (extra_procs, extra_reservations, duration, seed) ->
      let nb_procs = 1 + extra_procs
      and reservations = 1 + extra_reservations in
      let rng = Mcs_prng.Prng.create ~seed in
      let t = Timeline.create ~procs:nb_procs in
      (* Random non-overlapping reservations per proc; [ends] keeps
         their finishes. *)
      let ends = ref [] in
      for proc = 0 to nb_procs - 1 do
        let clock = ref 0. in
        for _ = 1 to reservations / nb_procs do
          let gap = Mcs_prng.Prng.uniform rng ~lo:0. ~hi:3. in
          let len = Mcs_prng.Prng.uniform rng ~lo:0.5 ~hi:4. in
          Timeline.reserve t ~proc ~start:(!clock +. gap)
            ~finish:(!clock +. gap +. len);
          clock := !clock +. gap +. len;
          ends := !clock :: !ends
        done
      done;
      let count = 1 + Mcs_prng.Prng.int rng nb_procs in
      match Timeline.find_slot t ~count ~duration ~after:0. with
      | None -> false
      | Some (start, procs) ->
        Array.length procs = count
        && Array.for_all
             (fun p ->
               Timeline.is_free t ~proc:p ~start ~finish:(start +. duration))
             procs
        &&
        (* No candidate time strictly before [start] admits [count] free
           processors for the duration. *)
        List.for_all
          (fun earlier ->
            earlier >= start -. 1e-9
            ||
            let free =
              List.filter
                (fun p ->
                  Timeline.is_free t ~proc:p ~start:earlier
                    ~finish:(earlier +. duration))
                (List.init nb_procs Fun.id)
            in
            List.length free < count)
          (* The release points: 0 and every reservation end. *)
          (0. :: !ends))

let suite =
  [
    ( "util.timeline",
      [
        Alcotest.test_case "reserve & free" `Quick test_reserve_and_free;
        Alcotest.test_case "overlap rejected" `Quick
          test_reserve_overlap_rejected;
        Alcotest.test_case "validation" `Quick test_reserve_validation;
        Alcotest.test_case "hole filling" `Quick test_find_slot_in_hole;
        Alcotest.test_case "multi-processor slot" `Quick
          test_find_slot_multi_proc;
        Alcotest.test_case "best fit" `Quick test_find_slot_best_fit;
        Alcotest.test_case "best-fit tie-breaking" `Quick
          test_find_slot_best_fit_ties;
        Alcotest.test_case "subset & count" `Quick
          test_find_slot_subset_and_count;
        QCheck_alcotest.to_alcotest qcheck_find_slot_is_free_and_earliest;
      ] );
  ]
