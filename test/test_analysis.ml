(* The static analyzer, tested the same way lib/check is: tiny inline
   sources seeded with one violation (or its clean twin) must produce
   exactly the expected rule codes, and the committed fixture files
   must keep flagging the exact rule their name claims. *)

module Analysis = Mcs_analysis.Analysis
module Finding = Mcs_analysis.Finding
module Rule = Mcs_analysis.Rule
module Source = Mcs_analysis.Source

let unit_of src =
  match Source.parse_string ~filename:"inline.ml" src with
  | Ok u -> u
  | Error e -> Alcotest.fail e

let findings src = Analysis.run [ unit_of src ]
let active_codes src =
  List.map (fun f -> Rule.code f.Finding.rule) (Finding.active (findings src))
let waived_codes src =
  List.map (fun f -> Rule.code f.Finding.rule) (Finding.waived (findings src))

let check_codes msg expected src =
  Alcotest.(check (list string)) msg expected (active_codes src)

(* --- LOCK001 ------------------------------------------------------- *)

let test_lock_guarded () =
  check_codes "unlocked write flags" [ "LOCK001" ]
    {|type t = { lock : Mutex.t; mutable n : int [@guarded_by lock] }
      let bump t = t.n <- 1|};
  check_codes "protected access is clean" []
    {|type t = { lock : Mutex.t; mutable n : int [@guarded_by lock] }
      let bump t = Mutex.protect t.lock @@ fun () -> t.n <- t.n + 1|};
  check_codes "lock/unlock bracket is clean" []
    {|type t = { lock : Mutex.t; mutable n : int [@guarded_by lock] }
      let bump t =
        Mutex.lock t.lock;
        t.n <- t.n + 1;
        Mutex.unlock t.lock|};
  check_codes "[@@locked_by] seeds the callee's lockset" []
    {|type t = { lock : Mutex.t; mutable n : int [@guarded_by lock] }
      let bump t = t.n <- t.n + 1 [@@locked_by lock]|};
  check_codes "guarded top-level binding" [ "LOCK001" ]
    {|let lock = Mutex.create ()
      let table : (int, int) Hashtbl.t = Hashtbl.create 8 [@@guarded_by lock]
      let peek k = Hashtbl.find_opt table k|};
  Alcotest.(check (list string))
    "[@no_lock_needed] waives, not hides"
    [ "LOCK001" ]
    (waived_codes
       {|type t = { lock : Mutex.t; mutable n : int [@guarded_by lock] }
         let init t = (t.n <- 0) [@no_lock_needed]|})

let test_lock_guarded_none_active_when_waived () =
  check_codes "waived finding is not active" []
    {|type t = { lock : Mutex.t; mutable n : int [@guarded_by lock] }
      let init t = (t.n <- 0) [@no_lock_needed]|}

(* --- LOCK002 ------------------------------------------------------- *)

let test_lock_order () =
  check_codes "reversed pair cycles" [ "LOCK002" ]
    {|let a = Mutex.create ()
      let b = Mutex.create ()
      let f () = Mutex.protect a @@ fun () -> Mutex.protect b @@ fun () -> ()
      let g () = Mutex.protect b @@ fun () -> Mutex.protect a @@ fun () -> ()|};
  check_codes "consistent order is clean" []
    {|let a = Mutex.create ()
      let b = Mutex.create ()
      let f () = Mutex.protect a @@ fun () -> Mutex.protect b @@ fun () -> ()
      let g () = Mutex.protect a @@ fun () -> Mutex.protect b @@ fun () -> ()|}

let test_lock_order_cross_unit () =
  (* The edge graph is global: each unit alone is acyclic. *)
  let u1 =
    unit_of
      {|let f (a, b) = Mutex.protect a @@ fun () ->
          Mutex.protect b @@ fun () -> ()|}
  in
  let u2 =
    unit_of
      {|let g (a, b) = Mutex.protect b @@ fun () ->
          Mutex.protect a @@ fun () -> ()|}
  in
  let codes =
    List.map (fun f -> Rule.code f.Finding.rule)
      (Finding.active (Analysis.run [ u1; u2 ]))
  in
  Alcotest.(check (list string)) "cross-unit cycle" [ "LOCK002" ] codes

(* --- LOCK003 ------------------------------------------------------- *)

let test_wait_loop () =
  check_codes "bare wait flags" [ "LOCK003" ]
    {|let take lock ready pending =
        Mutex.protect lock @@ fun () ->
        if !pending = 0 then Condition.wait ready lock;
        decr pending|};
  check_codes "while-loop wait is clean" []
    {|let take lock ready pending =
        Mutex.protect lock @@ fun () ->
        while !pending = 0 do Condition.wait ready lock done;
        decr pending|}

(* --- ESCAPE -------------------------------------------------------- *)

let test_escape_ref () =
  check_codes "captured ref write flags" [ "ESCAPE001" ]
    {|let f () =
        let hits = ref 0 in
        let d = Domain.spawn (fun () -> incr hits) in
        Domain.join d|};
  check_codes "closure-local ref is clean" []
    {|let f () =
        let d = Domain.spawn (fun () -> let n = ref 0 in incr n; !n) in
        Domain.join d|};
  check_codes "Atomic.incr is not bare incr" []
    {|let f () =
        let hits = Atomic.make 0 in
        let d = Domain.spawn (fun () -> Atomic.incr hits) in
        Domain.join d|};
  check_codes "setfield through capture flags" [ "ESCAPE001" ]
    {|type s = { mutable v : int }
      let f cell = Domain.join (Domain.spawn (fun () -> cell.v <- 1))|};
  Alcotest.(check (list string))
    "[@domain_local] waives" [ "ESCAPE002" ]
    (waived_codes
       {|let f results =
           Domain.join
             (Domain.spawn (fun () -> (results.(0) <- 1) [@domain_local]))|})

let test_escape_container () =
  check_codes "captured Hashtbl write flags" [ "ESCAPE002" ]
    {|let f table =
        Domain.join (Domain.spawn (fun () -> Hashtbl.replace table 1 2))|};
  check_codes "Mutex.protect guards the write" []
    {|let f lock table =
        Domain.join
          (Domain.spawn (fun () ->
             Mutex.protect lock @@ fun () -> Hashtbl.replace table 1 2))|};
  check_codes "named worker binding is resolved" [ "ESCAPE002" ]
    {|let f table =
        let worker () = Hashtbl.replace table 1 2 in
        Domain.join (Domain.spawn worker)|};
  check_codes "Parmap.map closures count as spawned" [ "ESCAPE001" ]
    {|let f items =
        let acc = ref 0 in
        Parmap.map (fun x -> acc := !acc + x; x) items|}

(* --- ATOM ---------------------------------------------------------- *)

let test_atom_rmw () =
  check_codes "get+set flags" [ "ATOM001" ]
    {|let g = Atomic.make 0
      let bump () = Atomic.set g (Atomic.get g + 1)|};
  check_codes "CAS loop is clean" []
    {|let g = Atomic.make 0.
      let rec add d =
        let v = Atomic.get g in
        if not (Atomic.compare_and_set g v (v +. d)) then add d|};
  check_codes "plain init set is clean" []
    {|let g = Atomic.make 0
      let reset () = Atomic.set g 0
      let peek () = Atomic.get g|};
  Alcotest.(check (list string))
    "[@@atomic_ok] waives the binding" [ "ATOM001" ]
    (waived_codes
       {|let g = Atomic.make 0
         let bump () = Atomic.set g (Atomic.get g + 1) [@@atomic_ok]|})

(* --- determinism --------------------------------------------------- *)

let test_deterministic_output () =
  let src =
    {|type t = { lock : Mutex.t; mutable n : int [@guarded_by lock] }
      let a t = t.n <- 1
      let b t = t.n <- 2
      let g = Atomic.make 0
      let c () = Atomic.set g (Atomic.get g + 1)|}
  in
  let r1 = List.map Finding.to_string (findings src) in
  let r2 = List.map Finding.to_string (findings src) in
  Alcotest.(check (list string)) "two runs identical" r1 r2;
  let rec adjacent_sorted = function
    | a :: (b :: _ as rest) ->
      Finding.compare a b <= 0 && adjacent_sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "sorted by position" true
    (adjacent_sorted (findings src))

(* --- committed fixtures ------------------------------------------- *)

let fixture_expectations =
  [
    ("fixtures/race_lock_unguarded.ml", "LOCK001");
    ("fixtures/race_lock_order.ml", "LOCK002");
    ("fixtures/race_wait_no_loop.ml", "LOCK003");
    ("fixtures/race_escape_ref.ml", "ESCAPE001");
    ("fixtures/race_escape_table.ml", "ESCAPE002");
    ("fixtures/race_atomic_rmw.ml", "ATOM001");
  ]

let test_fixtures () =
  List.iter
    (fun (path, code) ->
      let report = Analysis.over_paths [ path ] in
      Alcotest.(check (list string)) (path ^ " load errors") []
        (List.map snd report.Analysis.errors);
      let codes =
        List.sort_uniq compare
          (List.map
             (fun f -> Rule.code f.Finding.rule)
             (Finding.active report.Analysis.findings))
      in
      Alcotest.(check (list string)) path [ code ] codes)
    fixture_expectations

let test_registry () =
  List.iter
    (fun r ->
      Alcotest.(check (option string))
        (Rule.id r ^ " roundtrips by id")
        (Some (Rule.id r))
        (Option.map Rule.id (Rule.of_id (Rule.id r))))
    Rule.all;
  Alcotest.(check int) "six rules" 6 (List.length Rule.all)

let suite =
  [
    ( "analysis",
      [
        Alcotest.test_case "LOCK001 guarded fields" `Quick test_lock_guarded;
        Alcotest.test_case "LOCK001 waiver deactivates" `Quick
          test_lock_guarded_none_active_when_waived;
        Alcotest.test_case "LOCK002 lock order" `Quick test_lock_order;
        Alcotest.test_case "LOCK002 cross-unit" `Quick
          test_lock_order_cross_unit;
        Alcotest.test_case "LOCK003 wait loop" `Quick test_wait_loop;
        Alcotest.test_case "ESCAPE001 captured refs" `Quick test_escape_ref;
        Alcotest.test_case "ESCAPE002 captured containers" `Quick
          test_escape_container;
        Alcotest.test_case "ATOM001 get+set" `Quick test_atom_rmw;
        Alcotest.test_case "deterministic output" `Quick
          test_deterministic_output;
        Alcotest.test_case "seeded fixtures flag their rule" `Quick
          test_fixtures;
        Alcotest.test_case "rule registry roundtrips" `Quick test_registry;
      ] );
  ]
