module Platform = Mcs_platform.Platform
module Grid5000 = Mcs_platform.Grid5000
module Task = Mcs_taskmodel.Task
module Builder = Mcs_ptg.Builder
module Prng = Mcs_prng.Prng
module Schedule = Mcs_sched.Schedule
module Pipeline = Mcs_sched.Pipeline
module Strategy = Mcs_sched.Strategy
open Mcs_sim

let check_float = Alcotest.(check (float 1e-6))

(* ---------- Flow network ---------- *)

let test_single_flow_full_capacity () =
  let net = Flow_network.create ~capacities:[| 100. |] in
  let f = Flow_network.add_flow net [ 0 ] () in
  Flow_network.update net;
  check_float "gets everything" 100. (Flow_network.rate f)

let test_fair_share () =
  let net = Flow_network.create ~capacities:[| 100. |] in
  let f1 = Flow_network.add_flow net [ 0 ] () in
  let f2 = Flow_network.add_flow net [ 0 ] () in
  Flow_network.update net;
  check_float "half" 50. (Flow_network.rate f1);
  check_float "half" 50. (Flow_network.rate f2);
  Flow_network.remove_flow net f1;
  Flow_network.update net;
  check_float "back to full" 100. (Flow_network.rate f2)

let test_max_min_classic () =
  (* Classic example: link0 cap 10 shared by f1 f2; link1 cap 100 used by
     f2 f3. f1 = 5, f2 = 5, f3 = 95. *)
  let net = Flow_network.create ~capacities:[| 10.; 100. |] in
  let f1 = Flow_network.add_flow net [ 0 ] () in
  let f2 = Flow_network.add_flow net [ 0; 1 ] () in
  let f3 = Flow_network.add_flow net [ 1 ] () in
  Flow_network.update net;
  check_float "f1" 5. (Flow_network.rate f1);
  check_float "f2" 5. (Flow_network.rate f2);
  check_float "f3" 95. (Flow_network.rate f3)

let test_bottleneck_propagation () =
  (* Three flows over a narrow link and one over a wide one. *)
  let net = Flow_network.create ~capacities:[| 30.; 1000. |] in
  let fs = List.init 3 (fun _ -> Flow_network.add_flow net [ 0; 1 ] ()) in
  let big = Flow_network.add_flow net [ 1 ] () in
  Flow_network.update net;
  List.iter (fun f -> check_float "narrow share" 10. (Flow_network.rate f)) fs;
  check_float "big gets the rest" 970. (Flow_network.rate big)

let test_empty_route_unbounded () =
  let net = Flow_network.create ~capacities:[| 10. |] in
  let f = Flow_network.add_flow net [] () in
  Flow_network.update net;
  Alcotest.(check bool) "unbounded" true
    (Flow_network.rate f >= Flow_network.max_rate)

let test_flow_network_validation () =
  let net = Flow_network.create ~capacities:[| 10. |] in
  Alcotest.(check bool) "bad link" true
    (try
       ignore (Flow_network.add_flow net [ 3 ] ());
       false
     with Invalid_argument _ -> true);
  let f = Flow_network.add_flow net [ 0 ] () in
  Flow_network.remove_flow net f;
  Alcotest.(check bool) "double remove" true
    (try
       Flow_network.remove_flow net f;
       false
     with Invalid_argument _ -> true);
  List.iter
    (fun c ->
      Alcotest.check_raises (Printf.sprintf "capacity %h" c)
        (Invalid_argument
           "Flow_network.create: capacity not finite and positive")
        (fun () -> ignore (Flow_network.create ~capacities:[| 10.; c |])))
    [ nan; infinity; neg_infinity; 0.; -1. ]

let qcheck_work_conservation =
  QCheck.Test.make
    ~name:"max-min: at least one link saturated when flows exist" ~count:50
    QCheck.(int_range 0 7)
    (fun extra_flows ->
      let nflows = 1 + extra_flows in
      let net = Flow_network.create ~capacities:[| 50.; 80. |] in
      let rng = Prng.create ~seed:nflows in
      let routes =
        List.init nflows (fun _ ->
            match Prng.int rng 3 with
            | 0 -> [ 0 ]
            | 1 -> [ 1 ]
            | _ -> [ 0; 1 ])
      in
      let flows =
        List.map (fun route -> Flow_network.add_flow net route ()) routes
      in
      Flow_network.update net;
      let load = [| 0.; 0. |] in
      List.iter2
        (fun f route ->
          let r = Flow_network.rate f in
          List.iter (fun l -> load.(l) <- load.(l) +. r) route)
        flows routes;
      load.(0) <= 50. +. 1e-6
      && load.(1) <= 80. +. 1e-6
      && (load.(0) >= 50. -. 1e-6 || load.(1) >= 80. -. 1e-6))

(* The list-based progressive filling [Flow_network.update] replaced,
   kept as the reference: it recounts every link each round and scans
   all of them. [flows] is newest first, the order the network kept. *)
type ref_flow = { id : int; route : int array }

let reference_rates capacities flows =
  let max_rate = Flow_network.max_rate in
  let nl = Array.length capacities in
  let remaining = Array.copy capacities in
  let result = Hashtbl.create 16 in
  let unfrozen = ref flows in
  let continue = ref true in
  while !continue && !unfrozen <> [] do
    let count = Array.make nl 0 in
    List.iter
      (fun f -> Array.iter (fun l -> count.(l) <- count.(l) + 1) f.route)
      !unfrozen;
    (* Smallest link share among links carrying unfrozen flows. *)
    let link_share = ref Float.infinity in
    for l = 0 to nl - 1 do
      if count.(l) > 0 then
        link_share :=
          Float.min !link_share (remaining.(l) /. float_of_int count.(l))
    done;
    let bound = Float.min !link_share max_rate in
    if bound >= max_rate then begin
      (* Nothing binds: the remaining flows are unbounded. *)
      List.iter (fun f -> Hashtbl.replace result f.id max_rate) !unfrozen;
      continue := false
    end
    else begin
      let tol = 1e-12 *. Float.max 1. bound in
      let binds f =
        max_rate <= bound +. tol
        || Array.exists
             (fun l ->
               count.(l) > 0
               && remaining.(l) /. float_of_int count.(l) <= bound +. tol)
             f.route
      in
      let freeze, keep = List.partition binds !unfrozen in
      (* At least one flow realises the bound, so we always progress. *)
      assert (freeze <> []);
      List.iter
        (fun f ->
          Hashtbl.replace result f.id bound;
          Array.iter
            (fun l -> remaining.(l) <- Float.max 0. (remaining.(l) -. bound))
            f.route)
        freeze;
      unfrozen := keep
    end
  done;
  List.map (fun f -> (f, Hashtbl.find result f.id)) flows

(* Tie-prone random networks: capacities from a few values, some a few
   1e-13 apart so that shares land inside the freeze
   tolerance without being equal, duplicate links in routes, empty
   routes, and adds interleaved with removes. After every step each
   active flow's rate must equal the reference bit for bit, and the
   update's rounds must each have scanned exactly the links some
   active flow crosses. *)
let qcheck_update_matches_reference =
  QCheck.Test.make ~name:"update matches the reference bit for bit"
    ~count:300 QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let nl = 1 + Prng.int rng 6 in
      let capacities =
        Array.init nl (fun _ ->
            Prng.choose rng
              [| 10.; 25.; 30.; 60.; 60. *. (1. +. 8e-13); 100.; 1e3 |])
      in
      let net = Flow_network.create ~capacities in
      let active = ref [] (* (handle, reference flow), newest first *) in
      let ok = ref true in
      let work = ref (Flow_network.work net) in
      for step = 0 to Prng.int rng 40 do
        (if !active <> [] && Prng.bernoulli rng ~p:0.3 then begin
           let victim = List.nth !active (Prng.int rng (List.length !active)) in
           Flow_network.remove_flow net (fst victim);
           active := List.filter (fun a -> a != victim) !active
         end
         else
           let route = List.init (Prng.int rng 5) (fun _ -> Prng.int rng nl) in
           let handle = Flow_network.add_flow net route () in
           let reference =
             { id = step; route = Array.of_list (List.sort_uniq compare route) }
           in
           active := (handle, reference) :: !active);
        Flow_network.update net;
        let before = !work and after = Flow_network.work net in
        work := after;
        let crossed =
          List.sort_uniq Int.compare
            (List.concat_map (fun (_, f) -> Array.to_list f.route) !active)
        in
        if
          after.updates <> before.updates + 1
          || after.links_visited - before.links_visited
             <> (after.rounds - before.rounds) * List.length crossed
        then ok := false;
        let expected = reference_rates capacities (List.map snd !active) in
        List.iter2
          (fun (handle, _) (_, r) ->
            if
              Int64.bits_of_float (Flow_network.rate handle)
              <> Int64.bits_of_float r
            then ok := false)
          !active expected
      done;
      !ok)

let test_iter_newest_first () =
  let net = Flow_network.create ~capacities:[| 10. |] in
  let fs = List.map (fun x -> Flow_network.add_flow net [ 0 ] x) [ 1; 2; 3; 4 ] in
  Flow_network.remove_flow net (List.nth fs 1);
  let seen = ref [] in
  Flow_network.iter net (fun f -> seen := Flow_network.data f :: !seen);
  Alcotest.(check (list int)) "insertion order, newest first" [ 4; 3; 1 ]
    (List.rev !seen)

let test_update_allocates_nothing () =
  let net = Flow_network.create ~capacities:[| 30.; 50.; 80.; 1e3 |] in
  List.iter
    (fun route -> ignore (Flow_network.add_flow net route ()))
    [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 0; 3 ]; [ 1 ]; []; [ 3 ] ];
  Flow_network.update net;
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    Flow_network.update net
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "no minor words (%.0f)" words)
    true (words = 0.)

(* ---------- Topology ---------- *)

let test_topology_single_switch () =
  let topo = Topology.of_platform (Grid5000.lille ()) in
  Alcotest.(check int) "three uplinks, no backbone" 3
    (Array.length (Topology.capacities topo));
  Alcotest.(check (list int)) "intra" [ 0 ]
    (Topology.route topo ~src_cluster:0 ~dst_cluster:0);
  Alcotest.(check (list int)) "inter same switch" [ 0; 2 ]
    (Topology.route topo ~src_cluster:0 ~dst_cluster:2)

let test_topology_multi_switch () =
  let topo = Topology.of_platform (Grid5000.sophia ()) in
  Alcotest.(check int) "three uplinks + backbone" 4
    (Array.length (Topology.capacities topo));
  Alcotest.(check (list int)) "cross switch goes through backbone" [ 3; 0; 1 ]
    (Topology.route topo ~src_cluster:0 ~dst_cluster:1)

(* ---------- Replay ---------- *)

let seconds_task ?(alpha = 0.) seconds =
  Task.make ~data:(seconds *. 1e9) ~complexity:(Stencil 1.) ~alpha

let toy_platform ?(procs = 4) () =
  Platform.make ~name:"toy"
    [ { Platform.cluster_name = "c0"; procs; gflops = 1.; switch = 0 } ]

let test_replay_chain_no_comm () =
  let platform = toy_platform () in
  let tasks = [| seconds_task 3.; seconds_task 4. |] in
  let ptg = Builder.build ~id:0 ~name:"c" ~tasks ~edges:[ (0, 1, 0.) ] in
  let placements =
    [|
      { Schedule.node = 0; cluster = 0; procs = [| 0 |]; start = 0.; finish = 3. };
      { Schedule.node = 1; cluster = 0; procs = [| 0 |]; start = 3.; finish = 7. };
    |]
  in
  let sched = Schedule.make ~ptg ~placements in
  let result = Replay.run platform [ sched ] in
  check_float "no-comm chain matches plan" 7. result.Replay.makespans.(0);
  Alcotest.(check int) "no flows" 0 result.Replay.flows_created

let test_replay_transfer_timing () =
  (* Two tasks on different single processors joined by a 1 GB edge:
     one NIC stream, so the simulated start of the successor must be
     pred finish + latency + bytes/nic. *)
  let platform = toy_platform () in
  let tasks = [| seconds_task 2.; seconds_task 1. |] in
  let ptg = Builder.build ~id:0 ~name:"t" ~tasks ~edges:[ (0, 1, 1e9) ] in
  let transfer = 1e9 /. Platform.nic_bandwidth platform in
  let latency = Platform.latency platform in
  let placements =
    [|
      { Schedule.node = 0; cluster = 0; procs = [| 0 |]; start = 0.; finish = 2. };
      { Schedule.node = 1; cluster = 0; procs = [| 1 |];
        start = 2. +. latency +. transfer;
        finish = 3. +. latency +. transfer };
    |]
  in
  let result = Replay.run platform [ Schedule.make ~ptg ~placements ] in
  check_float "start after transfer"
    (2. +. latency +. transfer)
    result.Replay.start_times.(0).(1);
  Alcotest.(check int) "one flow" 1 result.Replay.flows_created

let test_replay_contention_slows_transfers () =
  (* Two producer/consumer pairs transferring concurrently across the
     inter-switch backbone share it and take twice the exclusive
     transfer time. *)
  let platform =
    Platform.make ~name:"toy" ~nic_bandwidth:1.25e9
      ~backbone_bandwidth:1.25e9
      [
        { Platform.cluster_name = "c0"; procs = 2; gflops = 1.; switch = 0 };
        { Platform.cluster_name = "c1"; procs = 2; gflops = 1.; switch = 1 };
      ]
  in
  let mk id offset =
    let tasks = [| seconds_task 1.; seconds_task 1. |] in
    let ptg = Builder.build ~id ~name:"p" ~tasks ~edges:[ (0, 1, 1.25e9) ] in
    let placements =
      [|
        { Schedule.node = 0; cluster = 0; procs = [| offset |]; start = 0.;
          finish = 1. };
        { Schedule.node = 1; cluster = 1; procs = [| offset + 2 |];
          start = 2.; finish = 3. };
      |]
    in
    Schedule.make ~ptg ~placements
  in
  let result = Replay.run platform [ mk 0 0; mk 1 1 ] in
  let latency = Platform.latency platform in
  (* Exclusive transfer of 1.25e9 over 1.25e9 B/s = 1 s; two sharing
     flows -> 2 s. Start = 1 (finish) + latency + 2. *)
  check_float "contended start" (3. +. latency)
    result.Replay.start_times.(0).(1);
  check_float "same for the other" (3. +. latency)
    result.Replay.start_times.(1).(1)

let test_replay_proc_fifo_order () =
  (* Two independent apps share one processor; the replay must keep the
     planned order. *)
  let platform = toy_platform ~procs:1 () in
  let mk id start =
    let tasks = [| seconds_task 2. |] in
    let ptg = Builder.build ~id ~name:"s" ~tasks ~edges:[] in
    let placements =
      [| { Schedule.node = 0; cluster = 0; procs = [| 0 |]; start;
           finish = start +. 2. } |]
    in
    Schedule.make ~ptg ~placements
  in
  let result = Replay.run platform [ mk 0 0.; mk 1 2. ] in
  check_float "first" 2. result.Replay.makespans.(0);
  check_float "second" 4. result.Replay.makespans.(1)

let test_replay_on_pipeline_output () =
  let platform = Grid5000.rennes () in
  let rng = Prng.create ~seed:123 in
  let ptgs =
    List.init 5 (fun id ->
        Mcs_ptg.Random_gen.generate ~id rng Mcs_ptg.Random_gen.default)
  in
  let schedules =
    Pipeline.schedule_concurrent ~strategy:Strategy.Equal_share platform ptgs
  in
  let result = Replay.run platform schedules in
  Alcotest.(check int) "five makespans" 5 (Array.length result.Replay.makespans);
  List.iteri
    (fun i sched ->
      let sim = result.Replay.makespans.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "app %d simulated >= 0.8x estimate" i)
        true
        (sim >= 0.8 *. sched.Schedule.makespan);
      Alcotest.(check bool)
        (Printf.sprintf "app %d simulated within 2x estimate" i)
        true
        (sim <= 2. *. sched.Schedule.makespan))
    schedules;
  Alcotest.(check bool) "events counted" true (result.Replay.events_processed > 0)

let test_replay_deterministic () =
  let platform = Grid5000.sophia () in
  let rng = Prng.create ~seed:9 in
  let ptgs =
    List.init 4 (fun id ->
        Mcs_ptg.Random_gen.generate ~id rng Mcs_ptg.Random_gen.default)
  in
  let schedules =
    Pipeline.schedule_concurrent ~strategy:Strategy.Selfish platform ptgs
  in
  let r1 = Replay.run platform schedules in
  let r2 = Replay.run platform schedules in
  Alcotest.(check bool) "same makespans" true
    (r1.Replay.makespans = r2.Replay.makespans)

let test_replay_rejects_empty () =
  Alcotest.(check bool) "no schedules" true
    (try
       ignore (Replay.run (toy_platform ()) []);
       false
     with Invalid_argument _ -> true)

let qcheck_replay_close_to_estimate =
  QCheck.Test.make
    ~name:"simulated makespan within [0.5x, 3x] of the estimate" ~count:15
    QCheck.(pair (int_range 0 500) (int_range 0 3))
    (fun (seed, platform_idx) ->
      let platform = List.nth (Grid5000.all ()) platform_idx in
      let rng = Prng.create ~seed in
      let ptgs =
        List.init 3 (fun id ->
            Mcs_ptg.Random_gen.generate ~id rng Mcs_ptg.Random_gen.default)
      in
      let schedules =
        Pipeline.schedule_concurrent ~strategy:Strategy.Equal_share platform
          ptgs
      in
      let result = Replay.run platform schedules in
      List.for_all2
        (fun sched sim ->
          sim >= 0.5 *. sched.Schedule.makespan
          && sim <= 3. *. sched.Schedule.makespan)
        schedules
        (Array.to_list result.Replay.makespans))

let test_replay_late_transfer_completes () =
  (* A 1 GB transfer released at 1e5 s over 1.25e9 B/s NICs: half an ulp
     of the clock times the rate exceeds 1e-3 bytes, so a completion
     that re-derived the bytes left could find some still unsent. *)
  let platform =
    Platform.make ~name:"toy" ~nic_bandwidth:1.25e9
      [ { Platform.cluster_name = "c0"; procs = 2; gflops = 1.; switch = 0 } ]
  in
  let release = 1e5 in
  let latency = Platform.latency platform in
  for k = 0 to 19 do
    let bytes = 1e9 +. (float_of_int k *. 12345.678) in
    let tasks = [| seconds_task 2.; seconds_task 1. |] in
    let ptg = Builder.build ~id:0 ~name:"t" ~tasks ~edges:[ (0, 1, bytes) ] in
    let placements =
      [|
        { Schedule.node = 0; cluster = 0; procs = [| 0 |]; start = 0.;
          finish = 2. };
        { Schedule.node = 1; cluster = 0; procs = [| 1 |]; start = 10.;
          finish = 11. };
      |]
    in
    let result =
      Replay.run ~release:[| release |] platform
        [ Schedule.make ~ptg ~placements ]
    in
    check_float
      (Printf.sprintf "%.0f bytes: start after transfer" bytes)
      (release +. 2. +. latency +. (bytes /. 1.25e9))
      result.Replay.start_times.(0).(1)
  done

let test_replay_rejects_non_finite_release () =
  let platform = toy_platform () in
  let ptg =
    Builder.build ~id:0 ~name:"s" ~tasks:[| seconds_task 1. |] ~edges:[]
  in
  let sched =
    Schedule.make ~ptg
      ~placements:
        [| { Schedule.node = 0; cluster = 0; procs = [| 0 |]; start = 0.;
             finish = 1. } |]
  in
  List.iter
    (fun r ->
      Alcotest.check_raises (Printf.sprintf "release %h" r)
        (Invalid_argument "Replay.run: negative or non-finite release")
        (fun () -> ignore (Replay.run ~release:[| r |] platform [ sched ])))
    [ nan; infinity; neg_infinity; -1. ]

(* Hex-float digest of every time the replay reports. *)
let replay_digest r =
  let b = Buffer.create 4096 in
  let add x = Buffer.add_string b (Printf.sprintf "%h;" x) in
  Array.iter add r.Replay.makespans;
  Array.iter (Array.iter add) r.Replay.start_times;
  Array.iter (Array.iter add) r.Replay.finish_times;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Four applications per case, drawn from seed 17; the WPS-width runs
   submit them at 0, 3, 6 and 9 s. *)
let pinned_cases =
  let module W = Mcs_experiments.Workload in
  List.concat_map
    (fun (site, platform) ->
      List.concat_map
        (fun (fname, family) ->
          List.map
            (fun (sname, strategy, release) ->
              (Printf.sprintf "%s/%s/%s" site fname sname, platform, family,
               strategy, release))
            [
              ("ES", Strategy.Equal_share, None);
              ("WPS-width", Strategy.Weighted (Width, 0.5),
               Some [| 0.; 3.; 6.; 9. |]);
            ])
        [
          ("random", W.Random_mixed_scenarios);
          ("fft", W.Fft_ptgs);
          ("strassen", W.Strassen_ptgs);
        ])
    [ ("rennes", Grid5000.rennes ()); ("sophia", Grid5000.sophia ()) ]

let run_pinned (_, platform, family, strategy, release) =
  let ptgs =
    Mcs_experiments.Workload.draw (Prng.create ~seed:17) family ~count:4
  in
  let schedules =
    Pipeline.schedule_concurrent ?release ~strategy platform ptgs
  in
  (ptgs, release, Replay.run ?release platform schedules)

(* Digests of the replay's output on [pinned_cases], recorded before the
   solver and the event queue were rewritten. *)
let pinned_digests =
  [
    "ddea056708be4fe87507f293a26874b6";
    "10c9ad5ad41c98a1acaef72b942e5ccd";
    "fff10b14787ca5ee366ae2c49aa9e624";
    "883927b02fcfd14161127dd16b7b0d5c";
    "eb2313d9cbaf3e4b4f96d27e91a1d3c3";
    "5be1f33d53be7137284e8e37534dcae8";
    "c870b07779d6a4f3ae176dc685fc1830";
    "9b9d03eae276c5da929d7b9a208243e8";
    "2ef474a72fb22c57d6a305ee342121e1";
    "213c729e55c972582e20b05df9ac2fce";
    "05435310123f63786dbd3cc1c1628432";
    "fea0bb9ccec55fa93bb21fb5c82a8967";
  ]

let test_replay_pinned_output () =
  List.iter2
    (fun ((name, _, _, _, _) as case) expected ->
      let _, _, r = run_pinned case in
      Alcotest.(check string) name expected (replay_digest r))
    pinned_cases pinned_digests

let test_replay_event_accounting () =
  List.iter
    (fun ((name, _, _, _, _) as case) ->
      let ptgs, release, r = run_pinned case in
      let nodes =
        List.fold_left
          (fun acc ptg -> acc + Mcs_dag.Dag.node_count ptg.Mcs_ptg.Ptg.dag)
          0 ptgs
      in
      let released_later =
        match release with
        | None -> 0
        | Some rel ->
          Array.fold_left (fun acc t -> if t > 0. then acc + 1 else acc) 0 rel
      in
      Alcotest.(check int) name
        (nodes + (2 * r.Replay.flows_created) + released_later)
        r.Replay.events_processed)
    pinned_cases

(* The replay before flow completions left its event heap, kept as the
   reference: every completion prediction holds a heap slot that each
   recompute re-keys, the processor FIFOs are lists of tuples sorted per
   processor, and the in-place test calls [Redistribution.same_procs]
   on every edge. *)
module Reference_replay = struct
  module Dag = Mcs_dag.Dag
  module Ptg = Mcs_ptg.Ptg
  module Redistribution = Mcs_taskmodel.Redistribution

  type flow_state = {
    f_app : int;
    f_node : int;
    route : int list;
    mutable remaining : float;
    mutable last_update : float;
    mutable slot : int;
  }

  type event =
    | Task_finish of int * int
    | Flow_activate of flow_state
    | Flow_finish of flow_state Flow_network.flow
    | App_release of int

  type queue = {
    mutable times : float array;
    mutable seqs : int array;
    mutable events : event array;
    mutable size : int;
    mutable last_seq : int;
  }

  let filler = App_release (-1)

  let earlier q i j =
    let c = Float.compare q.times.(i) q.times.(j) in
    c < 0 || (c = 0 && q.seqs.(i) < q.seqs.(j))

  let note_slot q i =
    match q.events.(i) with
    | Flow_finish h -> (Flow_network.data h).slot <- i
    | Task_finish _ | Flow_activate _ | App_release _ -> ()

  let move q ~src ~dst =
    q.times.(dst) <- q.times.(src);
    q.seqs.(dst) <- q.seqs.(src);
    q.events.(dst) <- q.events.(src);
    note_slot q dst

  let swap q i j =
    let time = q.times.(i) and seq = q.seqs.(i) and ev = q.events.(i) in
    move q ~src:j ~dst:i;
    q.times.(j) <- time;
    q.seqs.(j) <- seq;
    q.events.(j) <- ev;
    note_slot q j

  let rec sift_up q i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if earlier q i parent then begin
        swap q i parent;
        sift_up q parent
      end
    end

  let rec sift_down q i =
    let l = (2 * i) + 1 in
    if l < q.size then begin
      let c = if l + 1 < q.size && earlier q (l + 1) l then l + 1 else l in
      if earlier q c i then begin
        swap q i c;
        sift_down q c
      end
    end

  let push q time ev =
    if q.size = Array.length q.times then begin
      let n = max 64 (2 * q.size) in
      let grow a x =
        let b = Array.make n x in
        Array.blit a 0 b 0 q.size;
        b
      in
      q.times <- grow q.times 0.;
      q.seqs <- grow q.seqs 0;
      q.events <- grow q.events filler
    end;
    let i = q.size in
    q.size <- i + 1;
    q.last_seq <- q.last_seq + 1;
    q.times.(i) <- time;
    q.seqs.(i) <- q.last_seq;
    q.events.(i) <- ev;
    note_slot q i;
    sift_up q i

  let predict q time h =
    let i = (Flow_network.data h).slot in
    if i < 0 then push q time (Flow_finish h)
    else begin
      q.last_seq <- q.last_seq + 1;
      q.times.(i) <- time;
      q.seqs.(i) <- q.last_seq;
      if i > 0 && earlier q i ((i - 1) / 2) then sift_up q i else sift_down q i
    end

  let drop_min q =
    (match q.events.(0) with
    | Flow_finish h -> (Flow_network.data h).slot <- -1
    | Task_finish _ | Flow_activate _ | App_release _ -> ());
    q.size <- q.size - 1;
    if q.size > 0 then begin
      move q ~src:q.size ~dst:0;
      sift_down q 0
    end

  let by_plan (s1, f1, i1, v1) (s2, f2, i2, v2) =
    let c = Float.compare s1 s2 in
    if c <> 0 then c
    else
      let c = Float.compare f1 f2 in
      if c <> 0 then c
      else
        let c = Int.compare i1 i2 in
        if c <> 0 then c else Int.compare v1 v2

  let run ?release platform schedules =
    let schedules = Array.of_list schedules in
    let napps = Array.length schedules in
    let release =
      match release with None -> Array.make napps 0. | Some r -> Array.copy r
    in
    let topology = Topology.of_platform platform in
    let latency = Topology.latency topology in
    let dag i = schedules.(i).Schedule.ptg.Ptg.dag in
    let node_count i = Dag.node_count (dag i) in
    let fabric_links = Topology.capacities topology in
    let endpoint = Array.init napps (fun i -> Array.make (node_count i) (-1)) in
    let endpoint_caps = ref [] in
    let link_count = ref (Array.length fabric_links) in
    Array.iteri
      (fun i sched ->
        Array.iter
          (fun pl ->
            let n = Array.length pl.Schedule.procs in
            if n > 0 then begin
              endpoint.(i).(pl.Schedule.node) <- !link_count;
              endpoint_caps :=
                (float_of_int n *. Platform.nic_bandwidth platform)
                :: !endpoint_caps;
              incr link_count
            end)
          sched.Schedule.placements)
      schedules;
    let capacities =
      Array.append fabric_links (Array.of_list (List.rev !endpoint_caps))
    in
    let network = Flow_network.create ~capacities in
    let deps =
      Array.init napps (fun i ->
          Array.init (node_count i) (fun v -> Dag.in_degree (dag i) v))
    in
    let started = Array.init napps (fun i -> Array.make (node_count i) false) in
    let finished = Array.init napps (fun i -> Array.make (node_count i) false) in
    let start_times = Array.init napps (fun i -> Array.make (node_count i) nan) in
    let finish_times =
      Array.init napps (fun i -> Array.make (node_count i) nan)
    in
    let total_procs = Platform.total_procs platform in
    let queue_build = Array.make total_procs [] in
    Array.iteri
      (fun i sched ->
        Array.iter
          (fun pl ->
            Array.iter
              (fun p ->
                queue_build.(p) <-
                  (pl.Schedule.start, pl.Schedule.finish, i, pl.Schedule.node)
                  :: queue_build.(p))
              pl.Schedule.procs)
          sched.Schedule.placements)
      schedules;
    let queues =
      Array.map
        (fun l ->
          Array.of_list
            (List.map (fun (_, _, i, v) -> (i, v)) (List.sort by_plan l)))
        queue_build
    in
    let head = Array.make total_procs 0 in
    let at_head p i v =
      head.(p) < Array.length queues.(p)
      &&
      let qi, qv = queues.(p).(head.(p)) in
      qi = i && qv = v
    in
    let q =
      { times = [||]; seqs = [||]; events = [||]; size = 0; last_seq = 0 }
    in
    let flows_created = ref 0 in
    let events_processed = ref 0 in
    let recompute now =
      Flow_network.iter network (fun h ->
          let fs = Flow_network.data h in
          fs.remaining <-
            Float.max 0.
              (fs.remaining -. (Flow_network.rate h *. (now -. fs.last_update)));
          fs.last_update <- now);
      Flow_network.update network;
      Flow_network.iter network (fun h ->
          let fs = Flow_network.data h in
          let rate = Flow_network.rate h in
          let eta =
            if rate >= Flow_network.max_rate then 0. else fs.remaining /. rate
          in
          predict q (now +. eta) h)
    in
    let rec task_ready i v =
      deps.(i).(v) = 0
      && (not started.(i).(v))
      && Array.for_all
           (fun p -> at_head p i v)
           schedules.(i).Schedule.placements.(v).Schedule.procs
    and try_start now i v =
      if task_ready i v then begin
        started.(i).(v) <- true;
        start_times.(i).(v) <- now;
        let pl = schedules.(i).Schedule.placements.(v) in
        push q (now +. (pl.Schedule.finish -. pl.Schedule.start))
          (Task_finish (i, v))
      end
    and dep_done now i v =
      deps.(i).(v) <- deps.(i).(v) - 1;
      try_start now i v
    and finish_task now i v =
      finished.(i).(v) <- true;
      finish_times.(i).(v) <- now;
      let sched = schedules.(i) in
      let ptg = sched.Schedule.ptg in
      let pl = sched.Schedule.placements.(v) in
      Array.iter
        (fun p ->
          head.(p) <- head.(p) + 1;
          if head.(p) < Array.length queues.(p) then begin
            let ni, nv = queues.(p).(head.(p)) in
            try_start now ni nv
          end)
        pl.Schedule.procs;
      Array.iter
        (fun (w, e) ->
          let bytes = ptg.Ptg.edge_bytes.(e) in
          let pw = sched.Schedule.placements.(w) in
          let in_place =
            bytes <= 0.
            || pl.Schedule.cluster = pw.Schedule.cluster
               && Redistribution.same_procs pl.Schedule.procs pw.Schedule.procs
          in
          if in_place then dep_done now i w
          else begin
            incr flows_created;
            let fs =
              {
                f_app = i;
                f_node = w;
                route =
                  endpoint.(i).(v) :: endpoint.(i).(w)
                  :: Topology.route topology ~src_cluster:pl.Schedule.cluster
                       ~dst_cluster:pw.Schedule.cluster;
                remaining = bytes;
                last_update = now;
                slot = -1;
              }
            in
            push q (now +. latency) (Flow_activate fs)
          end)
        (Dag.succs ptg.Ptg.dag v)
    in
    for i = 0 to napps - 1 do
      if release.(i) > 0. then begin
        for v = 0 to node_count i - 1 do
          if deps.(i).(v) = 0 then deps.(i).(v) <- 1
        done;
        push q release.(i) (App_release i)
      end
    done;
    for i = 0 to napps - 1 do
      for v = 0 to node_count i - 1 do
        if deps.(i).(v) = 0 then try_start 0. i v
      done
    done;
    while q.size > 0 do
      let now = q.times.(0) and ev = q.events.(0) in
      drop_min q;
      incr events_processed;
      match ev with
      | Task_finish (i, v) -> finish_task now i v
      | App_release i ->
        for v = 0 to node_count i - 1 do
          if deps.(i).(v) = 1 && Dag.in_degree (dag i) v = 0 then
            dep_done now i v
        done
      | Flow_activate fs ->
        ignore (Flow_network.add_flow network fs.route fs);
        fs.last_update <- now;
        recompute now
      | Flow_finish h ->
        Flow_network.remove_flow network h;
        recompute now;
        let fs = Flow_network.data h in
        dep_done now fs.f_app fs.f_node
    done;
    assert (Array.for_all (Array.for_all Fun.id) finished);
    let makespans =
      Array.mapi
        (fun i sched -> finish_times.(i).(Ptg.exit sched.Schedule.ptg))
        schedules
    in
    {
      Replay.makespans;
      global_makespan = Array.fold_left Float.max 0. makespans;
      finish_times;
      start_times;
      flows_created = !flows_created;
      events_processed = !events_processed;
      updates = (Flow_network.work network).Flow_network.updates;
    }
end

(* The batching guard, on a hand-built case where every time is exact:
   a 1 s latency, one cluster of 1024 B/s NICs behind a 4096 B/s
   fabric, each task alone on its processor (so each NIC group holds
   1024 B/s) and power-of-two bytes. Nodes 8 and 9 are the virtual
   entry and exit.
   - t = 2: P (0) finishes and pushes its flow G to W (4); Q (2)
     finishes and starts Y (3), its in-place successor.
   - t = 3: X (1) finishes and pushes its flow FX to U (5); G activates
     alone, 1024 bytes at 1024 B/s, and is predicted at exactly 4; Y
     finishes and pushes FY1 and FY2 to V1 (6) and V2 (7).
   - t = 4: FX's activation sorts before G's prediction and FY1's
     after it, so FX may not wait for FY1. Its recompute re-predicts G
     at 4 with a later seq; FY1 then waits for FY2, whose recompute
     serves both, and G completes.
   Updates: G's, FX's and FY2's activations, then the completions of G
   at 4, FX at 6 (2048 bytes at 1024 B/s) and FY1 and FY2 at 8 (2048
   bytes each through Y's NIC group): 7. The unbatched reference runs
   8; a batch that skipped the guard would pop G's stale prediction
   before FY1 and run 6. *)
let test_replay_batching_guard () =
  let platform =
    Platform.make ~name:"pow2" ~nic_bandwidth:1024. ~link_bandwidth:4096.
      ~latency:1.
      [ { Platform.cluster_name = "c0"; procs = 8; gflops = 1.; switch = 0 } ]
  in
  let ptg =
    Builder.build ~id:0 ~name:"guard"
      ~tasks:(Array.make 8 (seconds_task 1.))
      ~edges:
        [ (0, 4, 1024.); (1, 5, 2048.); (2, 3, 0.); (3, 6, 2048.);
          (3, 7, 2048.) ]
  in
  let placement node procs start finish =
    { Schedule.node; cluster = 0; procs; start; finish }
  in
  let placements =
    [|
      placement 0 [| 0 |] 0. 2.;
      placement 1 [| 1 |] 0. 3.;
      placement 2 [| 2 |] 0. 2.;
      placement 3 [| 2 |] 2. 3.;
      placement 4 [| 3 |] 4. 5.;
      placement 5 [| 4 |] 6. 7.;
      placement 6 [| 5 |] 8. 9.;
      placement 7 [| 6 |] 8. 9.;
      placement 8 [||] 0. 0.;
      placement 9 [||] 9. 9.;
    |]
  in
  let schedules = [ Schedule.make ~ptg ~placements ] in
  let r = Replay.run platform schedules in
  let expected = Reference_replay.run platform schedules in
  Alcotest.(check (array (float 0.))) "starts"
    [| 0.; 0.; 0.; 2.; 4.; 6.; 8.; 8.; 0.; 9. |]
    r.Replay.start_times.(0);
  Alcotest.(check string) "times as the reference" (replay_digest expected)
    (replay_digest r);
  Alcotest.(check int) "flows" 4 r.Replay.flows_created;
  Alcotest.(check int) "events" 18 r.Replay.events_processed;
  Alcotest.(check int) "reference updates" 8 expected.Replay.updates;
  Alcotest.(check int) "updates" 7 r.Replay.updates

(* A tie-prone variant of a replay: the site's clusters under
   power-of-two bandwidths and a 1 s latency, every placement time
   replaced by its rank among the case's times (which keeps every
   comparison, so the processor FIFOs keep their order) and every
   edge's bytes rounded to a power of two, so that finishes,
   activations and completions share instants. *)
let tie_prone_platform site =
  Platform.make ~name:"pow2" ~nic_bandwidth:0x1p27 ~link_bandwidth:0x1p30
    ~backbone_bandwidth:0x1p30 ~latency:1.
    (Array.to_list (Platform.clusters site))

let tie_prone_schedules schedules =
  let rank = Hashtbl.create 64 in
  List.concat_map
    (fun s ->
      List.concat_map
        (fun pl -> [ pl.Schedule.start; pl.Schedule.finish ])
        (Array.to_list s.Schedule.placements))
    schedules
  |> List.sort_uniq Float.compare
  |> List.iteri (fun k t -> Hashtbl.replace rank t (float_of_int k));
  let pow2 b =
    if b > 0. then Float.ldexp 1. (int_of_float (Float.round (Float.log2 b)))
    else b
  in
  List.map
    (fun s ->
      let ptg = s.Schedule.ptg in
      Schedule.make
        ~ptg:
          (Mcs_ptg.Ptg.create ~id:ptg.Mcs_ptg.Ptg.id ~name:ptg.Mcs_ptg.Ptg.name
             ~dag:ptg.Mcs_ptg.Ptg.dag ~tasks:ptg.Mcs_ptg.Ptg.tasks
             ~edge_bytes:(Array.map pow2 ptg.Mcs_ptg.Ptg.edge_bytes))
        ~placements:
          (Array.map
             (fun pl ->
               { pl with
                 Schedule.start = Hashtbl.find rank pl.Schedule.start;
                 finish = Hashtbl.find rank pl.Schedule.finish;
               })
             s.Schedule.placements))
    schedules

(* Random replays against the reference: any site (the multi-switch
   [nancy] and [sophia], and [grid] with its 11 clusters), family and
   strategy, 1-6 applications, releases none, distinct or on repeated
   instants, and one case in three made tie-prone. Each placement's
   processors are shuffled, since the replay treats them as a set: a
   successor on the same set in another order must still receive its
   data in place. Hex digests of every time, the flow count and the
   event count must agree, and the replay may not update more often
   than the reference. *)
let qcheck_replay_matches_reference =
  let sites =
    [|
      Grid5000.lille; Grid5000.nancy; Grid5000.rennes; Grid5000.sophia;
      Grid5000.grid;
    |]
  in
  let families =
    Mcs_experiments.Workload.
      [| Random_mixed_scenarios; Fft_ptgs; Strassen_ptgs |]
  in
  let strategies = Array.of_list Strategy.paper_eight in
  QCheck.Test.make ~name:"replay matches the reference bit for bit" ~count:100
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let platform = (Prng.choose rng sites) () in
      let count = 1 + Prng.int rng 6 in
      let ptgs =
        Mcs_experiments.Workload.draw rng (Prng.choose rng families) ~count
      in
      let release =
        match Prng.int rng 3 with
        | 0 -> None
        | 1 -> Some (Array.init count (fun i -> float_of_int i *. 2.5))
        | _ ->
          Some (Array.init count (fun _ -> float_of_int (Prng.int rng 3) *. 4.))
      in
      let schedules =
        Pipeline.schedule_concurrent ?release
          ~strategy:(Prng.choose rng strategies) platform ptgs
      in
      let platform, schedules =
        if Prng.int rng 3 = 0 then
          (tie_prone_platform platform, tie_prone_schedules schedules)
        else (platform, schedules)
      in
      let shuffled =
        List.map
          (fun s ->
            Schedule.make ~ptg:s.Schedule.ptg
              ~placements:
                (Array.map
                   (fun pl ->
                     let procs = Array.copy pl.Schedule.procs in
                     for k = Array.length procs - 1 downto 1 do
                       let j = Prng.int rng (k + 1) in
                       let x = procs.(k) in
                       procs.(k) <- procs.(j);
                       procs.(j) <- x
                     done;
                     { pl with Schedule.procs })
                   s.Schedule.placements))
          schedules
      in
      let r = Replay.run ?release platform shuffled in
      let expected = Reference_replay.run ?release platform shuffled in
      replay_digest r = replay_digest expected
      && r.Replay.flows_created = expected.Replay.flows_created
      && r.Replay.events_processed = expected.Replay.events_processed
      && r.Replay.updates <= expected.Replay.updates)

(* The [sim.*] counters add each replay's flows, events and updates,
   and repeat exactly: across two sweeps of the pinned cases, and
   across one and two domains. *)
let test_replay_counters () =
  let names =
    [ "sim.updates"; "sim.rounds"; "sim.links_visited"; "sim.flows";
      "sim.events" ]
  in
  let sweep domains =
    Mcs_obs.Obs.enable ();
    Fun.protect ~finally:Mcs_obs.Obs.disable @@ fun () ->
    let results =
      Mcs_util.Parmap.map ~domains
        (fun case ->
          let _, _, r = run_pinned case in
          r)
        pinned_cases
    in
    let sum field = List.fold_left (fun acc r -> acc + field r) 0 results in
    let values =
      List.map
        (fun name -> (name, Mcs_obs.Obs.value (Mcs_obs.Obs.counter name)))
        names
    in
    Alcotest.(check (list int)) "result totals"
      [
        sum (fun r -> r.Replay.updates);
        sum (fun r -> r.Replay.flows_created);
        sum (fun r -> r.Replay.events_processed);
      ]
      (List.map
         (fun name -> List.assoc name values)
         [ "sim.updates"; "sim.flows"; "sim.events" ]);
    values
  in
  let first = sweep 1 in
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool) (name ^ " counted") true (v > 0))
    first;
  Alcotest.(check (list (pair string int))) "two runs" first (sweep 1);
  Alcotest.(check (list (pair string int))) "two domains" first (sweep 2)

(* Each replay is one [sim.replay] span, wherever it is called from:
   here two calls outside any experiment runner, as X4, X7 and the
   scheduling CLI make them. *)
let test_replay_span () =
  let module Obs = Mcs_obs.Obs in
  let _, platform, family, strategy, release = List.hd pinned_cases in
  let ptgs =
    Mcs_experiments.Workload.draw (Prng.create ~seed:17) family ~count:4
  in
  let schedules =
    Pipeline.schedule_concurrent ?release ~strategy platform ptgs
  in
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      for _ = 1 to 2 do
        ignore (Replay.run ?release platform schedules)
      done);
  Alcotest.(check (list (pair string int)))
    "one root span per call"
    [ ("sim.replay", 0); ("sim.replay", 0) ]
    (List.map (fun (s : Obs.span) -> (s.Obs.name, s.Obs.depth)) (Obs.spans ()))

let suite =
  [
    ( "sim.flow_network",
      [
        Alcotest.test_case "single flow" `Quick test_single_flow_full_capacity;
        Alcotest.test_case "fair share" `Quick test_fair_share;
        Alcotest.test_case "max-min classic" `Quick test_max_min_classic;
        Alcotest.test_case "bottleneck propagation" `Quick
          test_bottleneck_propagation;
        Alcotest.test_case "empty route" `Quick test_empty_route_unbounded;
        Alcotest.test_case "validation" `Quick test_flow_network_validation;
        QCheck_alcotest.to_alcotest qcheck_work_conservation;
        QCheck_alcotest.to_alcotest qcheck_update_matches_reference;
        Alcotest.test_case "iter newest first" `Quick test_iter_newest_first;
        Alcotest.test_case "update allocates nothing" `Quick
          test_update_allocates_nothing;
      ] );
    ( "sim.topology",
      [
        Alcotest.test_case "single switch" `Quick test_topology_single_switch;
        Alcotest.test_case "multi switch" `Quick test_topology_multi_switch;
      ] );
    ( "sim.replay",
      [
        Alcotest.test_case "chain without comm" `Quick test_replay_chain_no_comm;
        Alcotest.test_case "transfer timing" `Quick test_replay_transfer_timing;
        Alcotest.test_case "contention" `Quick
          test_replay_contention_slows_transfers;
        Alcotest.test_case "processor fifo" `Quick test_replay_proc_fifo_order;
        Alcotest.test_case "pipeline output" `Quick
          test_replay_on_pipeline_output;
        Alcotest.test_case "deterministic" `Quick test_replay_deterministic;
        Alcotest.test_case "rejects empty" `Quick test_replay_rejects_empty;
        Alcotest.test_case "late transfer completes" `Quick
          test_replay_late_transfer_completes;
        Alcotest.test_case "rejects non-finite release" `Quick
          test_replay_rejects_non_finite_release;
        Alcotest.test_case "pinned output" `Quick test_replay_pinned_output;
        Alcotest.test_case "event accounting" `Quick
          test_replay_event_accounting;
        QCheck_alcotest.to_alcotest qcheck_replay_close_to_estimate;
        Alcotest.test_case "batching guard" `Quick test_replay_batching_guard;
        QCheck_alcotest.to_alcotest qcheck_replay_matches_reference;
        Alcotest.test_case "work counters" `Quick test_replay_counters;
        Alcotest.test_case "one span per replay" `Quick test_replay_span;
      ] );
  ]
