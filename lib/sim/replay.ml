module Dag = Mcs_dag.Dag
module Ptg = Mcs_ptg.Ptg
module P = Mcs_platform.Platform
module Schedule = Mcs_sched.Schedule
module Redistribution = Mcs_taskmodel.Redistribution

type result = {
  makespans : float array;
  global_makespan : float;
  finish_times : float array array;
  start_times : float array array;
  flows_created : int;
  events_processed : int;
}

type flow_state = {
  f_app : int;
  f_node : int;  (* destination node whose dependency this flow carries *)
  route : int list;  (* fabric links plus both task-endpoint NIC groups *)
  mutable remaining : float;  (* bytes left to send at [last_update] *)
  mutable last_update : float;
  mutable slot : int;  (* queue position of its completion; -1 when none *)
}

type event =
  | Task_finish of int * int
  | Flow_activate of flow_state
  | Flow_finish of flow_state Flow_network.flow
  | App_release of int

(* The event queue: a binary min-heap on (time, seq) over parallel
   arrays. Every insertion takes the next seq, so same-time events pop
   in insertion order. A flow owns at most one slot, its predicted
   completion: a new prediction re-keys that slot with the next seq and
   sifts it up or down. The queue thus holds exactly the live entries,
   with the keys, of a queue that appended every prediction and skipped
   superseded ones when popped, and pops them in the same order. *)
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

(* Queue flow [h]'s completion at [time], re-keying its slot if it has
   one. *)
let predict q time h =
  let i = (Flow_network.data h).slot in
  if i < 0 then push q time (Flow_finish h)
  else begin
    q.last_seq <- q.last_seq + 1;
    q.times.(i) <- time;
    q.seqs.(i) <- q.last_seq;
    if i > 0 && earlier q i ((i - 1) / 2) then sift_up q i else sift_down q i
  end

(* Remove the earliest event, which the caller has read from slot 0. *)
let drop_min q =
  (match q.events.(0) with
  | Flow_finish h -> (Flow_network.data h).slot <- -1
  | Task_finish _ | Flow_activate _ | App_release _ -> ());
  q.size <- q.size - 1;
  if q.size > 0 then begin
    move q ~src:q.size ~dst:0;
    sift_down q 0
  end

(* The mapper's planned order on one processor: start, finish, then
   application and node — the order [compare] gives these tuples. *)
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
  let dag i = schedules.(i).Schedule.ptg.Ptg.dag in
  let node_count i = Dag.node_count (dag i) in

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

  (* Per-processor FIFO queues of (application, node) following the
     schedule's per-processor order (the mapper's planned start times). *)
  let total_procs = P.total_procs platform in
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

  (* Flow-rate bookkeeping: advance transferred bytes to [now] at the
     old rates, assign the fresh max-min rates and re-predict every
     completion, newest flow first. *)
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
    (* All dependencies in, and at the head of each processor FIFO. *)
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
      let duration = pl.Schedule.finish -. pl.Schedule.start in
      push q (now +. duration) (Task_finish (i, v))
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
    (* Release processors and wake the next tasks in their FIFOs. *)
    Array.iter
      (fun p ->
        assert (at_head p i v);
        head.(p) <- head.(p) + 1;
        if head.(p) < Array.length queues.(p) then begin
          let ni, nv = queues.(p).(head.(p)) in
          try_start now ni nv
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

  (* Submission gating: dependency-free tasks of a later-released
     application carry one extra dependency, resolved by its
     App_release event. *)
  for i = 0 to napps - 1 do
    if release.(i) > 0. then begin
      for v = 0 to node_count i - 1 do
        if deps.(i).(v) = 0 then deps.(i).(v) <- 1
      done;
      push q release.(i) (App_release i)
    end
  done;

  (* Seed: every dependency-free task. *)
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
      (* Its one queued prediction is its completion: every recompute
         since re-keyed it, so no bytes are left to wait for. *)
      Flow_network.remove_flow network h;
      recompute now;
      let fs = Flow_network.data h in
      dep_done now fs.f_app fs.f_node
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
  {
    makespans;
    global_makespan = Array.fold_left Float.max 0. makespans;
    finish_times;
    start_times;
    flows_created = !flows_created;
    events_processed = !events_processed;
  }
