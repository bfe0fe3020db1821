open Mcs_util

let check_float = Alcotest.(check (float 1e-9))

let test_sum_kahan () =
  check_float "sum of many small" 1.
    (Floatx.sum (Array.make 1_000_000 1e-6));
  check_float "empty sum" 0. (Floatx.sum [||]);
  check_float "sum list" 6. (Floatx.sum_list [ 1.; 2.; 3. ])

let test_mean () =
  check_float "mean" 2. (Floatx.mean [| 1.; 2.; 3. |]);
  check_float "mean empty" 0. (Floatx.mean [||])

let test_median () =
  check_float "odd" 2. (Floatx.median [| 3.; 1.; 2. |]);
  check_float "even" 2.5 (Floatx.median [| 4.; 1.; 2.; 3. |]);
  check_float "empty" 0. (Floatx.median [||])

let test_minmax () =
  check_float "min" 1. (Floatx.minimum [| 3.; 1.; 2. |]);
  check_float "max" 3. (Floatx.maximum [| 3.; 1.; 2. |]);
  Alcotest.check_raises "min empty"
    (Invalid_argument "Floatx.minimum: empty array") (fun () ->
      ignore (Floatx.minimum [||]))

let test_clamp () =
  check_float "below" 0. (Floatx.clamp ~lo:0. ~hi:1. (-3.));
  check_float "above" 1. (Floatx.clamp ~lo:0. ~hi:1. 3.);
  check_float "inside" 0.5 (Floatx.clamp ~lo:0. ~hi:1. 0.5)

let test_tolerant_cmp () =
  Alcotest.(check bool) "le within eps" true Floatx.(1. <=. (1. -. 1e-12));
  Alcotest.(check bool) "lt beyond eps" true Floatx.(1. <. 1.1);
  Alcotest.(check bool) "lt within eps is false" false
    Floatx.(1. <. (1. +. 1e-12));
  Alcotest.(check bool) "approx_eq relative" true
    (Floatx.approx_eq 1e12 (1e12 +. 1.) ~tol:1e-9)

(* An int heap: the int is the first tie under a constant key. *)
let int_heap l =
  let h = Heap.create () in
  List.iter (fun x -> Heap.push h 0. x 0 0 0) l;
  h

let pop_int h =
  let x = Heap.min_int h 0 in
  Heap.drop_min h;
  x

let test_heap_order () =
  let h = Heap.create () in
  List.iter
    (fun x -> Heap.push h (float_of_int x) x 0 0 0)
    [ 5; 1; 4; 1; 3; 9; 2 ];
  Alcotest.(check int) "length" 7 (Heap.length h);
  let drained = List.init 7 (fun _ -> pop_int h) in
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 2; 3; 4; 5; 9 ] drained;
  Alcotest.(check bool) "empty" true (Heap.is_empty h)

let test_heap_peek_clear () =
  let h = int_heap [ 3; 1; 2 ] in
  Alcotest.(check int) "peek" 1 (Heap.min_int h 0);
  Alcotest.(check int) "peek does not pop" 3 (Heap.length h);
  Heap.clear h;
  Alcotest.(check bool) "cleared" true (Heap.is_empty h);
  Alcotest.check_raises "drop_min empty"
    (Invalid_argument "Heap.drop_min: empty heap") (fun () -> Heap.drop_min h);
  Alcotest.check_raises "min_key empty"
    (Invalid_argument "Heap.min_key: empty heap") (fun () ->
      ignore (Heap.min_key h));
  Heap.push h 1. 0 0 0 0;
  Alcotest.check_raises "no fifth tie"
    (Invalid_argument "Heap.min_int: no such int") (fun () ->
      ignore (Heap.min_int h 4))

(* The order is the key, then the four ties lexicographically; keys
   that compare neither lower nor higher (a NaN) leave it to the ties.
   A negated key pops the largest first. *)
let test_heap_custom_cmp () =
  let h = Heap.create () in
  List.iter
    (fun (k, a, b, c, d) -> Heap.push h k a b c d)
    [
      (-3., 9, 9, 9, 9);
      (-1., 0, 0, 0, 0);
      (-3., 1, 2, 3, 5);
      (-3., 1, 2, 3, 4);
      (-3., 1, 2, 2, 9);
      (-3., 0, 9, 9, 9);
    ];
  let drained =
    List.init 6 (fun _ ->
        let r =
          ( Heap.min_key h,
            List.init 4 (fun j -> Heap.min_int h j) )
        in
        Heap.drop_min h;
        r)
  in
  Alcotest.(check (list (pair (float 0.) (list int))))
    "key then ties"
    [
      (-3., [ 0; 9; 9; 9 ]);
      (-3., [ 1; 2; 2; 9 ]);
      (-3., [ 1; 2; 3; 4 ]);
      (-3., [ 1; 2; 3; 5 ]);
      (-3., [ 9; 9; 9; 9 ]);
      (-1., [ 0; 0; 0; 0 ]);
    ]
    drained;
  let a = Heap.create () and b = Heap.create () in
  Heap.push a Float.nan 2 0 0 0;
  Heap.push b 1. 1 0 0 0;
  Alcotest.(check bool) "a NaN key ties" false (Heap.min_before a b);
  Alcotest.(check bool) "and the ties decide" true (Heap.min_before b a)

let qcheck_heap_sorts =
  QCheck.Test.make ~name:"heap drains any int list sorted" ~count:200
    QCheck.(list int)
    (fun l ->
      let h = int_heap l in
      let drained = List.init (List.length l) (fun _ -> pop_int h) in
      drained = List.sort compare l)

(* The key of a slot whose first tie is [a]: a non-decreasing step
   function of [a] with both infinities and both zeros among its
   values, or a NaN when [nan] holds. Every pair of slots then compares
   as their ties do (a NaN key ties with every key, and unequal non-NaN
   keys order their slots as the ties do), so the ties alone give the
   model's order. *)
let model_key a ~nan ~neg =
  if nan then Float.nan
  else if a < -6 then Float.neg_infinity
  else if a > 6 then Float.infinity
  else if a = 0 then if neg then -0. else 0.
  else float_of_int (a / 2)

(* Interleaved pushes and pops against a sorted-list model: every draw
   [(x, nan, neg)] is a push of a slot with first tie [x mod 16] and
   its [model_key], a NaN when both flags hold, except when [x] is a
   multiple of 3, which is a pop. The last tie is the push's sequence
   number, so every slot is unique and a pop must return exactly the
   key bits and ties the model expects. *)
let qcheck_heap_interleaved =
  QCheck.Test.make ~name:"heap matches a sorted-list model under push/pop mix"
    ~count:200
    QCheck.(list (triple int bool bool))
    (fun ops ->
      let h = Heap.create () in
      (* [(a, b, seq), expected slot], sorted by the ties. *)
      let model = ref [] in
      let rec insert (((a, b, n), _) as e) = function
        | (((a', b', n'), _) as x) :: rest
          when a' < a || (a' = a && (b' < b || (b' = b && n' < n))) ->
          x :: insert e rest
        | l -> e :: l
      in
      let seq = ref 0 in
      let pop () =
        let slot =
          ( Int64.bits_of_float (Heap.min_key h),
            List.init 4 (fun j -> Heap.min_int h j) )
        in
        Heap.drop_min h;
        slot
      in
      let ok = ref true in
      List.iter
        (fun (x, nan, neg) ->
          if x mod 3 = 0 then begin
            let expected =
              match !model with
              | [] -> None
              | (_, m) :: rest ->
                model := rest;
                Some m
            in
            let got = if Heap.is_empty h then None else Some (pop ()) in
            if got <> expected then ok := false
          end
          else begin
            let a = x mod 16 and b = x land 3 in
            let key = model_key a ~nan:(nan && neg) ~neg in
            incr seq;
            Heap.push h key a b 0 !seq;
            model :=
              insert
                ((a, b, !seq), (Int64.bits_of_float key, [ a; b; 0; !seq ]))
                !model
          end)
        ops;
      !ok
      && Heap.length h = List.length !model
      && List.init (Heap.length h) (fun _ -> pop ()) = List.map snd !model)

(* ---------- Availability index ---------- *)

let test_avail_index_basic () =
  let avail = [| 3.; 1.; 2.; 0.; 5.; 4. |] in
  let groups = [| [| 0; 1; 2 |]; [| 3; 4; 5 |] |] in
  let idx = Avail_index.create ~avail ~groups in
  Alcotest.(check (array int)) "group 0 sorted" [| 1; 2; 0 |]
    (Avail_index.sorted idx 0);
  Alcotest.(check (array int)) "group 1 sorted" [| 3; 5; 4 |]
    (Avail_index.sorted idx 1);
  Avail_index.commit idx 0 ~lo:0 ~width:2 7.;
  Alcotest.(check (array int)) "after a commit, id breaks the tie"
    [| 0; 1; 2 |]
    (Avail_index.sorted idx 0);
  check_float "shared array updated" 7. avail.(1);
  check_float "avail accessor" 7. (Avail_index.avail idx 2);
  (* A commit moves its own group only. *)
  Avail_index.commit idx 1 ~lo:0 ~width:1 4.5;
  Alcotest.(check (array int)) "group 1 after a commit" [| 5; 3; 4 |]
    (Avail_index.sorted idx 1);
  Alcotest.(check (array int)) "group 0 untouched" [| 0; 1; 2 |]
    (Avail_index.sorted idx 0);
  (* Ids 3 and 4 stay below and at the new key 5: 3 is passed, 4 ties
     and precedes 5 by id. *)
  Avail_index.commit idx 1 ~lo:0 ~width:1 5.;
  Alcotest.(check (array int)) "passed and tied" [| 3; 4; 5 |]
    (Avail_index.sorted idx 1)

let test_avail_index_rejects_bad_ids () =
  let raises f =
    try
      f ();
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "id out of range" true
    (raises (fun () ->
         ignore (Avail_index.create ~avail:[| 0. |] ~groups:[| [| 1 |] |])));
  Alcotest.(check bool) "duplicate id" true
    (raises (fun () ->
         ignore
           (Avail_index.create ~avail:[| 0.; 0. |]
              ~groups:[| [| 0 |]; [| 0 |] |])));
  let avail = [| 1.; 2.; 3. |] in
  let idx = Avail_index.create ~avail ~groups:[| [| 0; 1; 2 |] |] in
  let rejects name ~lo ~width v =
    Alcotest.(check bool) name true
      (raises (fun () -> Avail_index.commit idx 0 ~lo ~width v))
  in
  rejects "nan" ~lo:0 ~width:1 Float.nan;
  rejects "infinity" ~lo:0 ~width:1 Float.infinity;
  rejects "negative infinity" ~lo:0 ~width:0 Float.neg_infinity;
  rejects "negative lo" ~lo:(-1) ~width:1 5.;
  rejects "negative width" ~lo:1 ~width:(-1) 5.;
  rejects "window past the view" ~lo:2 ~width:2 5.;
  rejects "below the window's last availability" ~lo:0 ~width:2 1.5;
  Alcotest.(check bool) "unknown group" true
    (raises (fun () -> Avail_index.commit idx 1 ~lo:0 ~width:0 5.));
  Alcotest.(check (array int)) "rejected commits change nothing"
    [| 0; 1; 2 |] (Avail_index.sorted idx 0);
  Alcotest.(check (array (float 0.))) "nor the shared array"
    [| 1.; 2.; 3. |] avail

let test_avail_index_commit_edge_cases () =
  let avail = [| 4.; 1.; 3.; 2.; 3.; 0. |] in
  let idx = Avail_index.create ~avail ~groups:[| Array.init 6 Fun.id |] in
  let view () = Avail_index.sorted idx 0 in
  Alcotest.(check (array int)) "built" [| 5; 1; 3; 2; 4; 0 |] (view ());
  (* A window out of id order lands in id order, past the survivor
     below the new key and merged with the two at it. *)
  Avail_index.commit idx 0 ~lo:0 ~width:2 3.;
  Alcotest.(check (array int)) "sorted, passed, merged" [| 3; 1; 2; 4; 5; 0 |]
    (view ());
  Avail_index.commit idx 0 ~lo:6 ~width:0 1.;
  Alcotest.(check (array int)) "an empty window is a no-op"
    [| 3; 1; 2; 4; 5; 0 |] (view ());
  Avail_index.commit idx 0 ~lo:5 ~width:1 4.;
  Alcotest.(check (array int)) "an unchanged key moves nothing"
    [| 3; 1; 2; 4; 5; 0 |] (view ());
  Avail_index.commit idx 0 ~lo:1 ~width:4 3.;
  Alcotest.(check (array int)) "a window of ties stays put"
    [| 3; 1; 2; 4; 5; 0 |] (view ());
  (* -0. and +0. are one key: a commit at +0. over ids at -0. ties with
     them, so id order decides. *)
  let avail = [| -0.; 0.; -0.; 1. |] in
  let idx = Avail_index.create ~avail ~groups:[| [| 0; 1; 2; 3 |] |] in
  Avail_index.commit idx 0 ~lo:0 ~width:1 0.;
  Alcotest.(check (array int)) "both zeros tie" [| 0; 1; 2; 3 |]
    (Avail_index.sorted idx 0);
  Avail_index.commit idx 0 ~lo:1 ~width:2 (-0.);
  Alcotest.(check (array int)) "a commit at -0. over +0." [| 0; 1; 2; 3 |]
    (Avail_index.sorted idx 0)

(* Operation 3 rewrites the shared array behind the index's back, with
   equal keys and both zeros among the values, then resets it, which
   also leaves windows out of id order. Operation 4 rewrites the whole
   profile and resets it: most ids at the least availability [v], both
   zeros among them when [v] is a zero ([b mod 3 = 0]), every id at it
   (1), or every id at its own availability (2). The others commit a
   window of group [a mod 2] at [v] past its last availability
   (operation 0), at the availability of a survivor after it, so that
   it ties (1), or at exactly its last availability, a zero taking the
   sign of [v] (2). *)
let qcheck_avail_index_matches_resort =
  QCheck.Test.make
    ~name:"avail index view equals a full (avail, id) re-sort after commits"
    ~count:200
    QCheck.(list (quad (int_range 0 4) (int_range 0 19) (int_range 0 19)
                    (oneof [ oneofl [ 0.; -0.; 7. ]; float_range 0. 50. ])))
    (fun ops ->
      let avail = Array.make 20 0. in
      (* The second group is not listed in id order. *)
      let groups = [| Array.init 10 Fun.id; Array.init 10 (fun i -> 19 - i) |] in
      let idx = Avail_index.create ~avail ~groups in
      let reference g =
        let v = Array.copy groups.(g) in
        Array.sort
          (fun p q ->
            let c = Float.compare avail.(p) avail.(q) in
            if c <> 0 then c else compare p q)
          v;
        v
      in
      List.for_all
        (fun (op, a, b, v) ->
          if op < 3 then begin
            let g = a mod 2 in
            let view = Avail_index.sorted idx g in
            let n = Array.length view in
            let lo = a / 2 in
            let width = 1 + (b mod (n - lo)) in
            let hi = lo + width in
            let last = avail.(view.(hi - 1)) in
            let v =
              match op with
              | 0 -> last +. v
              | 1 ->
                if hi < n then avail.(view.(hi + (b mod (n - hi)))) else last
              | _ -> if last = 0. then Float.copy_sign 0. v else last
            in
            Avail_index.commit idx g ~lo ~width v
          end
          else if op = 3 then begin
            avail.(a) <- v;
            avail.(b) <- (if v = 0. then -.v else v);
            Avail_index.reset idx
          end
          else begin
            for i = 0 to 19 do
              let least = if v = 0. && i mod 2 = 1 then -.v else v in
              let spread = float_of_int (((7 * i) + a) mod 20) in
              avail.(i) <-
                (match b mod 3 with
                | 0 -> if (i + a) mod 5 = 0 then v +. 1. +. spread else least
                | 1 -> least
                | _ -> v +. spread)
            done;
            Avail_index.reset idx
          end;
          Avail_index.sorted idx 0 = reference 0
          && Avail_index.sorted idx 1 = reference 1)
        ops)

let test_table_render () =
  let t = Table.create ~title:"T" ~header:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  let rendered = Table.render t in
  Alcotest.(check bool) "has title" true
    (String.length rendered > 0 && String.sub rendered 0 1 = "T");
  Alcotest.check_raises "bad width"
    (Invalid_argument "Table.add_row: 3 cells for 2 columns") (fun () ->
      Table.add_row t [ "x"; "y"; "z" ])

let test_table_float_row () =
  let t = Table.create ~title:"T" ~header:[ "k"; "v" ] in
  Table.add_row t [ "pi"; Table.fmt_float 3.14159 ];
  Alcotest.(check bool) "rendered value" true
    (let r = Table.render t in
     let contains s sub =
       let n = String.length sub in
       let rec loop i =
         i + n <= String.length s && (String.sub s i n = sub || loop (i + 1))
       in
       loop 0
     in
     contains r "3.142");
  Alcotest.(check string) "nan formats as dash" "-" (Table.fmt_float nan)

(* The one JSON string escaper: every byte comes back through the
   parser, and the common escapes stay short. *)
let test_jsonx_quote () =
  let s = "we\"ird\\name\n\t\r\b\012\001 \xc3\xa9" in
  Alcotest.(check bool) "parse (quote s) = Str s" true
    (Jsonx.parse (Jsonx.quote s) = Ok (Jsonx.Str s));
  Alcotest.(check string) "short escapes" "\"a\\\"b\\\\c\\nd\\u0001\""
    (Jsonx.quote "a\"b\\c\nd\001");
  Alcotest.(check string) "same escaping as encode"
    (Jsonx.encode (Jsonx.Str s))
    (Jsonx.quote s)

let suite =
  [
    ( "util.floatx",
      [
        Alcotest.test_case "kahan sum" `Quick test_sum_kahan;
        Alcotest.test_case "mean" `Quick test_mean;
        Alcotest.test_case "median" `Quick test_median;
        Alcotest.test_case "min/max" `Quick test_minmax;
        Alcotest.test_case "clamp" `Quick test_clamp;
        Alcotest.test_case "tolerant comparisons" `Quick test_tolerant_cmp;
      ] );
    ( "util.heap",
      [
        Alcotest.test_case "ordering" `Quick test_heap_order;
        Alcotest.test_case "peek/clear" `Quick test_heap_peek_clear;
        Alcotest.test_case "custom comparison" `Quick test_heap_custom_cmp;
        QCheck_alcotest.to_alcotest qcheck_heap_sorts;
        QCheck_alcotest.to_alcotest qcheck_heap_interleaved;
      ] );
    ( "util.avail_index",
      [
        Alcotest.test_case "sorted views & updates" `Quick
          test_avail_index_basic;
        Alcotest.test_case "input validation" `Quick
          test_avail_index_rejects_bad_ids;
        Alcotest.test_case "commit edge cases" `Quick
          test_avail_index_commit_edge_cases;
        QCheck_alcotest.to_alcotest qcheck_avail_index_matches_resort;
      ] );
    ( "util.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "float rows" `Quick test_table_float_row;
      ] );
    ( "util.jsonx",
      [ Alcotest.test_case "quote round-trips" `Quick test_jsonx_quote ] );
  ]
