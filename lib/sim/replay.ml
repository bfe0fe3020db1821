module Dag = Mcs_dag.Dag
module Ptg = Mcs_ptg.Ptg
module P = Mcs_platform.Platform
module Schedule = Mcs_sched.Schedule
module Heap = Mcs_util.Heap
module Obs = Mcs_obs.Obs

let c_updates = Obs.counter "sim.updates"
let c_rounds = Obs.counter "sim.rounds"
let c_links_visited = Obs.counter "sim.links_visited"
let c_flows = Obs.counter "sim.flows"
let c_events = Obs.counter "sim.events"

type result = {
  makespans : float array;
  global_makespan : float;
  finish_times : float array array;
  start_times : float array array;
  flows_created : int;
  events_processed : int;
  updates : int;
}

(* [Float.max] without its runtime call: the stdlib's inlined version
   tests sign bits through [caml_signbit], a C call, whenever the first
   comparison fails. It returns the operand [Float.max] returns, signed
   zeros and a single NaN included. Local, because under the dev
   profile's [-opaque] a helper in another module is a real call that
   boxes its floats. *)
let[@inline] fmax (x : float) y =
  if y > x then y
  else if x > y then x
  else if x = y then if x = 0. && 1. /. x < 0. then y else x
  else if y <> y then y
  else x

(* A flow's floats, in an all-float record stored flat, so that writing
   them allocates nothing. [rate] is the rate the last recompute read,
   which the network still holds until the next [Flow_network.update]. *)
type clock = {
  mutable remaining : float;  (* bytes left to send at [last_update] *)
  mutable last_update : float;
  mutable rate : float;
  mutable due : float;  (* predicted completion *)
}

type flow_state = {
  f_app : int;
  f_node : int;  (* destination node whose dependency this flow carries *)
  route : int list;  (* fabric links plus both task-endpoint NIC groups *)
  clock : clock;
  mutable seq : int;  (* the queue seq its prediction took *)
  mutable handle : flow_state Flow_network.flow option;  (* once active *)
}

(* Event kinds, the second tie of a queue slot (see [run]). *)
let task_finish = 0
let flow_activate = 1
let app_release = 2

let run ?release platform schedules =
  Obs.with_span "sim.replay" @@ fun () ->
  if schedules = [] then invalid_arg "Replay.run: no schedules";
  let schedules = Array.of_list schedules in
  let napps = Array.length schedules in
  let release =
    match release with
    | None -> Array.make napps 0.
    | Some r ->
      if Array.length r <> napps then
        invalid_arg "Replay.run: release length differs from schedules";
      Array.iter
        (fun t ->
          if not (Float.is_finite t) || t < 0. then
            invalid_arg "Replay.run: negative or non-finite release")
        r;
      Array.copy r
  in
  let topology = Topology.of_platform platform in
  let latency = Topology.latency topology in
  let max_rate = Flow_network.max_rate in
  let dag i = schedules.(i).Schedule.ptg.Ptg.dag in
  let node_count i = Dag.node_count (dag i) in

  (* Placement ids: node [v] of application [i] is [base.(i) + v], so
     ids order placements by (application, node). *)
  let base = Array.make (napps + 1) 0 in
  for i = 0 to napps - 1 do
    base.(i + 1) <- base.(i) + node_count i
  done;
  let placement_count = base.(napps) in
  let id_app = Array.make placement_count 0 in
  let id_node = Array.make placement_count 0 in
  let id_start = Array.make placement_count 0. in
  let id_finish = Array.make placement_count 0. in
  let id_procs = Array.make placement_count [||] in
  let total_procs = P.total_procs platform in
  let fifo_length = Array.make total_procs 0 in
  Array.iteri
    (fun i sched ->
      Array.iteri
        (fun v pl ->
          let id = base.(i) + v in
          id_app.(id) <- i;
          id_node.(id) <- v;
          id_start.(id) <- pl.Schedule.start;
          id_finish.(id) <- pl.Schedule.finish;
          id_procs.(id) <- pl.Schedule.procs;
          Array.iter
            (fun p -> fifo_length.(p) <- fifo_length.(p) + 1)
            pl.Schedule.procs)
        sched.Schedule.placements)
    schedules;

  (* Links: the topology's fabrics and backbone, plus one "NIC group"
     link per task placement holding processors (capacity |procs|·nic),
     so that concurrent transfers in or out of one data-parallel task
     share its aggregate NIC capacity. *)
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
              (float_of_int n *. P.nic_bandwidth platform) :: !endpoint_caps;
            incr link_count
          end)
        sched.Schedule.placements)
    schedules;
  let capacities =
    Array.append fabric_links (Array.of_list (List.rev !endpoint_caps))
  in
  let network = Flow_network.create ~capacities in

  (* Per-application state. *)
  let deps =
    Array.init napps (fun i ->
        Array.init (node_count i) (fun v -> Dag.in_degree (dag i) v))
  in
  let started = Array.init napps (fun i -> Array.make (node_count i) false) in
  let finished = Array.init napps (fun i -> Array.make (node_count i) false) in
  let start_times = Array.init napps (fun i -> Array.make (node_count i) nan) in
  let finish_times = Array.init napps (fun i -> Array.make (node_count i) nan) in

  (* Per-processor FIFO queues of placement ids in the mapper's planned
     order: start, finish, then application and node. The ids are
     sorted once in that order and dealt out to their processors. *)
  let by_plan a b =
    let c = Float.compare id_start.(a) id_start.(b) in
    if c <> 0 then c
    else
      let c = Float.compare id_finish.(a) id_finish.(b) in
      if c <> 0 then c else Int.compare a b
  in
  let plan = Array.init placement_count Fun.id in
  Array.sort by_plan plan;
  let queues = Array.map (fun n -> Array.make n 0) fifo_length in
  let fill = Array.make total_procs 0 in
  Array.iter
    (fun id ->
      Array.iter
        (fun p ->
          queues.(p).(fill.(p)) <- id;
          fill.(p) <- fill.(p) + 1)
        id_procs.(id))
    plan;
  let head = Array.make total_procs 0 in
  let at_head p id =
    head.(p) < Array.length queues.(p) && queues.(p).(head.(p)) = id
  in
  (* Whether two placements hold the same processors, as multisets: a
     per-processor tally, zero between calls. *)
  let tally = Array.make total_procs 0 in
  let same_procs (a : int array) (b : int array) =
    Array.length a = Array.length b
    && begin
      for k = 0 to Array.length a - 1 do
        tally.(a.(k)) <- tally.(a.(k)) + 1
      done;
      let same = ref true in
      for k = 0 to Array.length b - 1 do
        let n = tally.(b.(k)) - 1 in
        tally.(b.(k)) <- n;
        if n < 0 then same := false
      done;
      (* Equal lengths and no negative tally leave every tally at zero;
         otherwise clear the ones [a] and [b] touched. *)
      if not !same then begin
        for k = 0 to Array.length a - 1 do
          tally.(a.(k)) <- 0
        done;
        for k = 0 to Array.length b - 1 do
          tally.(b.(k)) <- 0
        done
      end;
      !same
    end
  in

  (* The event queue holds task finishes, flow activations and
     releases, keyed on (time, seq). Every push takes the next seq, so
     same-time events pop in insertion order. A slot's other three ties
     are the event's kind and its two indices: (app, node) for a finish,
     the flow's number for an activation, the app for a release. No
     comparison reaches them, because seqs are unique. A flow waits for
     its activation in [waiting], under its number. Flow completions
     stay out of the queue: every recompute re-predicts every active
     flow, taking the next seq from the same counter, so between
     recomputes each flow holds exactly one live prediction, kept in its
     [flow_state]. The run loop pops whichever of the queue's minimum
     and the flows' minimum sorts first. The keys are those of one queue
     holding both, unique and totally ordered (every event time is
     finite), so the pops are that queue's pops. *)
  let q = Heap.create () in
  let last_seq = ref 0 in
  let push time kind a b =
    incr last_seq;
    Heap.push q time !last_seq kind a b
  in
  let flows_created = ref 0 in
  let events_processed = ref 0 in
  (* The active flow whose prediction sorts first, [none] without one. *)
  let none =
    {
      f_app = -1;
      f_node = -1;
      route = [];
      clock = { remaining = 0.; last_update = 0.; rate = 0.; due = 0. };
      seq = -1;
      handle = None;
    }
  in
  let soonest = ref none in
  (* Flows created and not yet activated, by flow number; a doubling
     copies with [Array.append], which forces no minor collection. *)
  let waiting = ref (Array.make 16 none) in
  (* Whether the flows' minimum sorts before the queue's. *)
  let flow_first () =
    let fs = !soonest in
    fs != none
    && (Heap.is_empty q
       ||
       let t = Heap.min_key q in
       fs.clock.due < t || (fs.clock.due = t && fs.seq < Heap.min_int q 0))
  in

  (* Flow-rate bookkeeping: assign the fresh max-min rates, then, newest
     flow first, advance each flow's bytes to [now] at its old rate and
     re-predict its completion with the next seq. *)
  let recompute now =
    Flow_network.update network;
    soonest := none;
    Flow_network.iter network (fun h ->
        let fs = Flow_network.data h in
        let c = fs.clock in
        c.remaining <-
          fmax 0. (c.remaining -. (c.rate *. (now -. c.last_update)));
        c.last_update <- now;
        let rate = Flow_network.rate h in
        c.rate <- rate;
        let eta = if rate >= max_rate then 0. else c.remaining /. rate in
        c.due <- now +. eta;
        incr last_seq;
        fs.seq <- !last_seq;
        (* Seqs grow along the pass, so only a strictly earlier time
           displaces the first flow found. *)
        if !soonest == none || c.due < !soonest.clock.due then soonest := fs)
  in

  let rec task_ready i v =
    (* All dependencies in, and at the head of each processor FIFO. *)
    deps.(i).(v) = 0
    && (not started.(i).(v))
    &&
    let id = base.(i) + v in
    Array.for_all
      (fun p -> at_head p id)
      schedules.(i).Schedule.placements.(v).Schedule.procs

  and try_start now i v =
    if task_ready i v then begin
      started.(i).(v) <- true;
      start_times.(i).(v) <- now;
      let pl = schedules.(i).Schedule.placements.(v) in
      let duration = pl.Schedule.finish -. pl.Schedule.start in
      push (now +. duration) task_finish i v
    end

  and dep_done now i v =
    deps.(i).(v) <- deps.(i).(v) - 1;
    assert (deps.(i).(v) >= 0);
    try_start now i v

  and finish_task now i v =
    finished.(i).(v) <- true;
    finish_times.(i).(v) <- now;
    let sched = schedules.(i) in
    let ptg = sched.Schedule.ptg in
    let pl = sched.Schedule.placements.(v) in
    let id = base.(i) + v in
    (* Release processors and wake the next tasks in their FIFOs. *)
    Array.iter
      (fun p ->
        assert (at_head p id);
        let h = head.(p) + 1 in
        head.(p) <- h;
        if h < Array.length queues.(p) then begin
          let next = queues.(p).(h) in
          try_start now id_app.(next) id_node.(next)
        end)
      pl.Schedule.procs;
    (* Feed successors: instant dependency or network flow. *)
    Array.iter
      (fun (w, e) ->
        let bytes = ptg.Ptg.edge_bytes.(e) in
        let pw = sched.Schedule.placements.(w) in
        let in_place =
          bytes <= 0.
          || pl.Schedule.cluster = pw.Schedule.cluster
             && same_procs pl.Schedule.procs pw.Schedule.procs
        in
        if in_place then dep_done now i w
        else begin
          let n = !flows_created in
          incr flows_created;
          let fs =
            {
              f_app = i;
              f_node = w;
              route =
                endpoint.(i).(v) :: endpoint.(i).(w)
                :: Topology.route topology ~src_cluster:pl.Schedule.cluster
                     ~dst_cluster:pw.Schedule.cluster;
              clock =
                { remaining = bytes; last_update = now; rate = 0.; due = 0. };
              seq = 0;
              handle = None;
            }
          in
          let w = !waiting in
          if n = Array.length w then begin
            let w = Array.append w w in
            Array.fill w n n none;
            waiting := w
          end;
          !waiting.(n) <- fs;
          push (now +. latency) flow_activate n 0
        end)
      (Dag.succs ptg.Ptg.dag v)
  in

  (* Submission gating: dependency-free tasks of a later-released
     application carry one extra dependency, resolved by its
     App_release event. *)
  for i = 0 to napps - 1 do
    if release.(i) > 0. then begin
      for v = 0 to node_count i - 1 do
        if deps.(i).(v) = 0 then deps.(i).(v) <- 1
      done;
      push release.(i) app_release i 0
    end
  done;

  (* Seed: every dependency-free task. *)
  for i = 0 to napps - 1 do
    for v = 0 to node_count i - 1 do
      if deps.(i).(v) = 0 then try_start 0. i v
    done
  done;

  while (not (Heap.is_empty q)) || !soonest != none do
    incr events_processed;
    if flow_first () then begin
      (* Its prediction is its completion: every recompute since its
         activation re-predicted it, so no bytes are left to wait for. *)
      let fs = !soonest in
      let now = fs.clock.due in
      Flow_network.remove_flow network (Option.get fs.handle);
      recompute now;
      dep_done now fs.f_app fs.f_node
    end
    else begin
      let now = Heap.min_key q and kind = Heap.min_int q 1 in
      let a = Heap.min_int q 2 and b = Heap.min_int q 3 in
      Heap.drop_min q;
      if kind = task_finish then finish_task now a b
      else if kind = app_release then begin
        for v = 0 to node_count a - 1 do
          if deps.(a).(v) = 1 && Dag.in_degree (dag a) v = 0 then
            dep_done now a v
        done
      end
      else begin
        let fs = !waiting.(a) in
        !waiting.(a) <- none;
        fs.handle <- Some (Flow_network.add_flow network fs.route fs);
        fs.clock.last_update <- now;
        (* If the next pop is another activation at [now], its
           recompute advances every flow by [rate *. 0.] and overwrites
           every rate, prediction and seq this one would set, so this
           one is skipped. The guard is the run loop's test: that
           activation pops next, as it does after a recompute, which
           re-predicts every flow at [now] or later with a later seq. *)
        let batched =
          (not (Heap.is_empty q))
          && Heap.min_key q = now
          && Heap.min_int q 1 = flow_activate
          && not (flow_first ())
        in
        if not batched then recompute now
      end
    end
  done;

  (* Every task must have completed. *)
  for i = 0 to napps - 1 do
    for v = 0 to node_count i - 1 do
      if not finished.(i).(v) then
        invalid_arg
          (Printf.sprintf
             "Replay.run: deadlock, app %d node %d never completed" i v)
    done
  done;
  let makespans =
    Array.mapi
      (fun i sched -> finish_times.(i).(Ptg.exit sched.Schedule.ptg))
      schedules
  in
  let work = Flow_network.work network in
  Obs.incr ~by:work.Flow_network.updates c_updates;
  Obs.incr ~by:work.Flow_network.rounds c_rounds;
  Obs.incr ~by:work.Flow_network.links_visited c_links_visited;
  Obs.incr ~by:!flows_created c_flows;
  Obs.incr ~by:!events_processed c_events;
  {
    makespans;
    global_makespan = Array.fold_left fmax 0. makespans;
    finish_times;
    start_times;
    flows_created = !flows_created;
    events_processed = !events_processed;
    updates = work.Flow_network.updates;
  }
