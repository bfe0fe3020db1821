module Dag = Mcs_dag.Dag
module Ptg = Mcs_ptg.Ptg
module P = Mcs_platform.Platform
module Task = Mcs_taskmodel.Task
module Redistribution = Mcs_taskmodel.Redistribution
module Floatx = Mcs_util.Floatx
module Avail_index = Mcs_util.Avail_index
module Obs = Mcs_obs.Obs

let c_tasks_mapped = Obs.counter "mapper.tasks_mapped"
let c_packing_attempts = Obs.counter "mapper.packing_attempts"
let c_packing_wins = Obs.counter "mapper.packing_wins"
let c_ready_peak = Obs.counter "mapper.ready_peak"
let c_avail_reorders = Obs.counter "mapper.avail_reorders"
let c_backfill_slots = Obs.counter "mapper.backfill_slots"

type ordering = Ready_tasks | Global_fcfs | Global_backfill

type options = {
  ordering : ordering;
  packing : bool;
}

let default_options = { ordering = Ready_tasks; packing = true }

(* Priority-queue entries: higher bottom level first; ties broken by
   application index then topological rank so that the order is total,
   deterministic, and precedence-compatible. *)
type entry = {
  priority : float;
  app : int;
  topo_rank : int;
  node : int;
}

let entry_cmp a b =
  if a.priority > b.priority then -1
  else if a.priority < b.priority then 1
  else begin
    let c = compare a.app b.app in
    if c <> 0 then c else compare a.topo_rank b.topo_rank
  end

type app_state = {
  ptg : Ptg.t;
  alloc : int array;                    (* reference processors per node *)
  bl : float array;                     (* bottom levels (priorities) *)
  topo_rank : int array;
  placements : Schedule.placement option array;
  pending : int array;                  (* unmapped predecessor count *)
}

(* One placement candidate on a given cluster: the window
   [order.(lo) .. order.(lo + width - 1)] of a processor array. Losing
   candidates never materialise their processor set; only the winner is
   copied out, by [candidate_procs]. *)
type candidate = {
  order : int array;
  lo : int;
  width : int;
  cluster : int;
  start : float;
  finish : float;
}

let candidate_procs c = Array.sub c.order c.lo c.width

let better_candidate a b =
  (* Earliest finish, then earliest start, then widest allocation. *)
  match (a, b) with
  | None, c | c, None -> c
  | Some ca, Some cb ->
    if cb.finish < ca.finish -. Floatx.eps then Some cb
    else if ca.finish < cb.finish -. Floatx.eps then Some ca
    else if cb.start < ca.start -. Floatx.eps then Some cb
    else if ca.start < cb.start -. Floatx.eps then Some ca
    else if cb.width > ca.width then Some cb
    else Some ca

let make_state (ptg, alloc) =
  let dag = ptg.Ptg.dag in
  let n = Dag.node_count dag in
  if Array.length alloc <> n then
    invalid_arg "List_mapper.run: allocation length differs from node count";
  Array.iter
    (fun a -> if a < 1 then invalid_arg "List_mapper.run: allocation < 1")
    alloc;
  let topo = Dag.topological_order dag in
  let topo_rank = Array.make n 0 in
  Array.iteri (fun rank v -> topo_rank.(v) <- rank) topo;
  let pending = Array.init n (fun v -> Dag.in_degree dag v) in
  {
    ptg;
    alloc;
    bl = [||]; (* filled by caller once the reference cluster is known *)
    topo_rank;
    placements = Array.make n None;
    pending;
  }

let bottom_levels ref_cluster ptg alloc =
  Dag.bottom_levels ptg.Ptg.dag
    ~node_weight:(fun v ->
      Reference_cluster.exec_time ref_cluster ptg.Ptg.tasks.(v)
        ~procs:alloc.(v))
    ~edge_weight:(fun _ -> 0.)

(* Map one task and return its placement. [floor] bounds the start of
   real tasks (submission time, plus the FCFS no-backfilling bound in
   Global_fcfs mode); [virtual_floor] bounds virtual entry/exit nodes
   (submission time only — the queue does not apply to them).

   [avail_idx] keeps each cluster's processors permanently sorted by
   (availability, id) — the order the former implementation re-derived
   with a per-task Array.sort — and [proc_avail] is the availability
   array shared with it. Everything that does not depend on the
   candidate width p' (per-predecessor route bandwidths, the aggregate
   NIC sums) is computed once per task or once per task×cluster and
   reused across all packing candidates, and the packing loop stops as
   soon as a start-time lower bound proves that no narrower width can
   win (DESIGN.md section 10); the resulting placements are
   bit-identical to the exhaustive search. *)
let place_task platform ref_cluster avail_idx proc_avail state v ~packing
    ~floor ~virtual_floor =
  let ptg = state.ptg in
  let dag = ptg.Ptg.dag in
  let preds =
    Array.map
      (fun (u, e) ->
        let pu =
          match state.placements.(u) with
          | Some p -> p
          | None -> assert false (* guaranteed by readiness *)
        in
        (pu, ptg.Ptg.edge_bytes.(e)))
      (Dag.preds dag v)
  in
  if Ptg.is_virtual ptg v then begin
    (* Virtual entry/exit: no processors, no duration; starts as soon as
       all predecessors are done. *)
    let start =
      Array.fold_left (fun acc (pu, _) -> Float.max acc pu.Schedule.finish)
        virtual_floor preds
    in
    { Schedule.node = v; cluster = 0; procs = [||]; start; finish = start }
  end
  else begin
    let task = ptg.Ptg.tasks.(v) in
    let np = Array.length preds in
    let nic = P.nic_bandwidth platform in
    let latency = P.latency platform in
    (* Cluster-independent predecessor data. *)
    let p_finish = Array.map (fun (pu, _) -> pu.Schedule.finish) preds in
    let p_bytes = Array.map (fun (_, bytes) -> bytes) preds in
    let p_cluster = Array.map (fun (pu, _) -> pu.Schedule.cluster) preds in
    let p_width =
      Array.map (fun (pu, _) -> Array.length pu.Schedule.procs) preds
    in
    (* Sorted predecessor processor sets, built on the first in-place
       test that needs one: most placements never reach that test. *)
    let p_sorted = Array.make np None in
    let sorted_pred i =
      match p_sorted.(i) with
      | Some s -> s
      | None ->
        let s = Array.copy (fst preds.(i)).Schedule.procs in
        Array.sort compare s;
        p_sorted.(i) <- Some s;
        s
    in
    (* Every candidate start is at least the latest predecessor
       finish: a transfer cost is never negative. *)
    let p_finish_max = Array.fold_left Float.max 0. p_finish in
    (* Per-cluster scratch, overwritten for each k. *)
    let p_route = Array.make (max 1 np) 0. in
    let best = ref None in
    for k = 0 to P.cluster_count platform - 1 do
      let c = P.cluster platform k in
      (* Processors of cluster k ordered by (availability, id) — a
         read-only view maintained incrementally across commits. Under a
         fault mask the view holds the live processors only; a width is
         capped to what survives, and a fully-down cluster offers no
         candidate at all. *)
      let order = Avail_index.sorted avail_idx k in
      if Array.length order > 0 then begin
      let needed =
        min
          (Array.length order)
          (Reference_cluster.translate ref_cluster platform ~cluster:k
             state.alloc.(v))
      in
      (* Hoisted per-cluster predecessor sums: route bandwidths and the
         aggregate-NIC totals of the no-exemption case do not depend on
         the candidate width. *)
      let agg_total = ref 0. and agg_last = ref 0. and agg_senders = ref 0 in
      for i = 0 to np - 1 do
        p_route.(i) <-
          Redistribution.route_bandwidth platform
            ~src_cluster:p_cluster.(i) ~dst_cluster:k;
        if p_bytes.(i) > 0. then begin
          agg_total := !agg_total +. p_bytes.(i);
          agg_last := Float.max !agg_last p_finish.(i);
          incr agg_senders
        end
      done;
      let agg_total = !agg_total
      and agg_last = !agg_last
      and agg_senders = !agg_senders in
      (* Redistribution cost of predecessor [i] towards p' processors of
         cluster k: latency + bytes over the NIC/route-limited rate. *)
      let cost i p' =
        if p_bytes.(i) <= 0. then 0.
        else
          let rate =
            Float.min
              (float_of_int (min (max 1 p_width.(i)) p') *. nic)
              p_route.(i)
          in
          latency +. (p_bytes.(i) /. rate)
      in
      let candidate_for p' exec =
        (* All incoming transfers funnel through the p' destination
           NICs; when several predecessors send data, their aggregate
           bounds the data-ready time too. *)
        let aggregate0 =
          if agg_senders <= 1 then 0.
          else agg_last +. latency +. (agg_total /. (float_of_int p' *. nic))
        in
        (* Earliest possible start with p' processors, pessimistically
           assuming every incoming transfer is paid. *)
        let data_ready0 =
          let acc = ref 0. in
          for i = 0 to np - 1 do
            acc := Float.max !acc (p_finish.(i) +. cost i p')
          done;
          Float.max aggregate0 !acc
        in
        let start0 =
          Float.max floor
            (Float.max data_ready0 proc_avail.(order.(p' - 1)))
        in
        (* Best fit: among the processors available by start0, take the
           latest-available ones, leaving the most idle processors free
           for tasks that are ready now (this is what lets a small PTG
           slip in beside a large one, Figure 1). [order] is sorted by
           availability, so the boundary is a binary search. *)
        let fits_until =
          let bound = start0 +. Floatx.eps in
          let lo = ref p' and hi = ref (Array.length order) in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if proc_avail.(order.(mid)) <= bound then lo := mid + 1
            else hi := mid
          done;
          !lo
        in
        let lo = fits_until - p' in
        (* The in-place rule may cancel transfers from predecessors that
           ran on exactly the chosen processors; when no predecessor ran
           on this cluster with this width, nothing can be cancelled and
           the pessimistic bound is already exact. *)
        let may_cancel = ref false in
        for i = 0 to np - 1 do
          if p_bytes.(i) > 0. && p_cluster.(i) = k && p_width.(i) = p' then
            may_cancel := true
        done;
        let data_ready =
          if not !may_cancel then data_ready0
          else begin
            let chosen = Array.sub order lo p' in
            Array.sort compare chosen;
            let in_place i =
              p_cluster.(i) = k && p_width.(i) = p' && sorted_pred i = chosen
            in
            let total = ref 0. and last = ref 0. and senders = ref 0 in
            for i = 0 to np - 1 do
              if p_bytes.(i) > 0. && not (in_place i) then begin
                total := !total +. p_bytes.(i);
                last := Float.max !last p_finish.(i);
                incr senders
              end
            done;
            let aggregate =
              if !senders <= 1 then 0.
              else
                !last +. latency
                +. (!total /. (float_of_int p' *. nic))
            in
            let acc = ref 0. in
            for i = 0 to np - 1 do
              let ci =
                if p_bytes.(i) > 0. && in_place i then 0. else cost i p'
              in
              acc := Float.max !acc (p_finish.(i) +. ci)
            done;
            Float.max aggregate !acc
          end
        in
        (* The window is availability-sorted, so its availability
           maximum is its last element's. *)
        let avail = Float.max 0. proc_avail.(order.(fits_until - 1)) in
        let start = Float.max floor (Float.max data_ready avail) in
        { order; lo; width = p'; cluster = k; start; finish = start +. exec }
      in
      let exec p' = Task.time task ~gflops:c.P.gflops ~procs:p' in
      let full = candidate_for needed (exec needed) in
      best := better_candidate !best (Some full);
      if packing && needed > 1 then begin
        (* The allocation may shrink only if the task then starts
           strictly earlier and finishes no later than with its original
           allocation (Section 5). No candidate starts before [lb], and
           [exec] does not increase with the width, so a width whose
           [lb + exec] already misses the full allocation's finish rules
           out every narrower one too. Widths ruled out by the bound are
           still counted as attempts. *)
        let lb =
          Float.max floor
            (Float.max p_finish_max (Float.max 0. proc_avail.(order.(0))))
        in
        if lb >= full.start -. Floatx.eps then
          Obs.incr ~by:(needed - 1) c_packing_attempts
        else
          Obs.with_span "mapper.packing" @@ fun () ->
          let p' = ref (needed - 1) in
          while !p' >= 1 do
            let e = exec !p' in
            if lb +. e > full.finish +. Floatx.eps then begin
              Obs.incr ~by:!p' c_packing_attempts;
              p' := 0
            end
            else begin
              Obs.incr c_packing_attempts;
              let cand = candidate_for !p' e in
              if
                cand.start < full.start -. Floatx.eps
                && cand.finish <= full.finish +. Floatx.eps
              then begin
                Obs.incr c_packing_wins;
                best := better_candidate !best (Some cand)
              end;
              decr p'
            end
          done
      end
      end
    done;
    match !best with
    | None ->
      (* Only reachable when a fault mask leaves no live processor. *)
      invalid_arg "List_mapper.run: no live cluster can host a task"
    | Some c ->
      let procs = candidate_procs c in
      Avail_index.update avail_idx procs c.finish;
      Obs.incr ~by:c.width c_avail_reorders;
      {
        Schedule.node = v;
        cluster = c.cluster;
        procs;
        start = c.start;
        finish = c.finish;
      }
  end

(* Conservative-backfilling placement: earliest hole in the reservation
   timelines large enough for the translated allocation, searched over
   every cluster. Existing reservations never move, so no earlier-queued
   task can be delayed — the defining property of conservative
   backfilling. *)
let place_task_backfill platform ref_cluster timeline subsets state v ~floor
    ~virtual_floor =
  let ptg = state.ptg in
  let dag = ptg.Ptg.dag in
  let preds =
    Array.map
      (fun (u, e) ->
        let pu =
          match state.placements.(u) with
          | Some p -> p
          | None -> assert false
        in
        (pu, ptg.Ptg.edge_bytes.(e)))
      (Dag.preds dag v)
  in
  if Ptg.is_virtual ptg v then begin
    let start =
      Array.fold_left (fun acc (pu, _) -> Float.max acc pu.Schedule.finish)
        virtual_floor preds
    in
    { Schedule.node = v; cluster = 0; procs = [||]; start; finish = start }
  end
  else begin
    let task = ptg.Ptg.tasks.(v) in
    let best = ref None in
    for k = 0 to P.cluster_count platform - 1 do
      let c = P.cluster platform k in
      (* Live processors of cluster k; a fault mask may shrink or empty
         the subset, capping the width exactly as in [place_task]. *)
      let subset = subsets.(k) in
      if Array.length subset > 0 then begin
      let needed =
        min
          (Array.length subset)
          (Reference_cluster.translate ref_cluster platform ~cluster:k
             state.alloc.(v))
      in
      let exec = Task.time task ~gflops:c.P.gflops ~procs:needed in
      (* Pessimistic data-ready time: per-predecessor transfer cost plus
         the aggregate bound through the destination NICs. *)
      let per_pred =
        Array.fold_left
          (fun acc (pu, bytes) ->
            let cost =
              Redistribution.transfer_time platform
                ~src_cluster:pu.Schedule.cluster ~dst_cluster:k
                ~src_procs:(max 1 (Array.length pu.Schedule.procs))
                ~dst_procs:needed ~bytes
            in
            Float.max acc (pu.Schedule.finish +. cost))
          0. preds
      in
      let aggregate =
        let total = ref 0. and last = ref 0. and senders = ref 0 in
        Array.iter
          (fun (pu, bytes) ->
            if bytes > 0. then begin
              total := !total +. bytes;
              last := Float.max !last pu.Schedule.finish;
              incr senders
            end)
          preds;
        if !senders <= 1 then 0.
        else
          !last +. P.latency platform
          +. (!total /. (float_of_int needed *. P.nic_bandwidth platform))
      in
      let after = Float.max floor (Float.max per_pred aggregate) in
      (match
         Mcs_util.Timeline.find_slot ~procs_subset:subset timeline
           ~count:needed ~duration:exec ~after
       with
      | None -> ()
      | Some (start, procs) ->
        Obs.incr c_backfill_slots;
        let cand =
          {
            order = procs;
            lo = 0;
            width = Array.length procs;
            cluster = k;
            start;
            finish = start +. exec;
          }
        in
        best := better_candidate !best (Some cand))
      end
    done;
    match !best with
    | None ->
      (* Allocations are capped to fit a cluster, so this is only
         reachable when a fault mask leaves no live processor. *)
      invalid_arg "List_mapper.run: no live cluster can host a task"
    | Some cand ->
      let procs = candidate_procs cand in
      Array.iter
        (fun p ->
          Mcs_util.Timeline.reserve timeline ~proc:p ~start:cand.start
            ~finish:cand.finish)
        procs;
      {
        Schedule.node = v;
        cluster = cand.cluster;
        procs;
        start = cand.start;
        finish = cand.finish;
      }
  end

let run ?(options = default_options) ?release ?pinned ?avail ?up ?task_floor
    platform ref_cluster apps =
  if apps = [] then invalid_arg "List_mapper.run: no applications";
  Obs.with_span "mapper.run" @@ fun () ->
  (match up with
  | Some u when Array.length u <> P.total_procs platform ->
    invalid_arg "List_mapper.run: up length differs from platform"
  | _ -> ());
  let release =
    match release with
    | None -> Array.make (List.length apps) 0.
    | Some r ->
      if Array.length r <> List.length apps then
        invalid_arg "List_mapper.run: release length differs from apps";
      Array.iter
        (fun t ->
          if not (Float.is_finite t) || t < 0. then
            invalid_arg "List_mapper.run: negative or non-finite release")
        r;
      Array.copy r
  in
  let states =
    Obs.with_span "mapper.prepare" @@ fun () ->
    Array.of_list
      (List.map
         (fun (ptg, alloc) ->
           let s = make_state (ptg, alloc) in
           { s with bl = bottom_levels ref_cluster ptg alloc })
         apps)
  in
  (* Per-task start floors (retry backoff under fault recovery): max'd
     with the application release time and the FCFS bound below. *)
  (match task_floor with
  | None -> ()
  | Some f ->
    if Array.length f <> Array.length states then
      invalid_arg "List_mapper.run: task_floor length differs from apps";
    Array.iteri
      (fun i state ->
        if Array.length f.(i) <> Dag.node_count state.ptg.Ptg.dag then
          invalid_arg "List_mapper.run: task_floor node count differs from DAG";
        Array.iter
          (fun t ->
            if Float.is_nan t || t < 0. then
              invalid_arg "List_mapper.run: ill-formed task floor")
          f.(i))
      states);
  let node_floor i v =
    match task_floor with None -> 0. | Some f -> f.(i).(v)
  in
  (* Freeze pinned placements: they count as already mapped (successors'
     pending counts drop) but are never (re)placed, and their processor
     occupancy is carried by [avail] rather than re-reserved here. *)
  (match pinned with
  | None -> ()
  | Some pin ->
    if Array.length pin <> Array.length states then
      invalid_arg "List_mapper.run: pinned length differs from apps";
    Array.iteri
      (fun i state ->
        let dag = state.ptg.Ptg.dag in
        let n = Dag.node_count dag in
        if Array.length pin.(i) <> n then
          invalid_arg "List_mapper.run: pinned node count differs from DAG";
        Array.iteri
          (fun v pl ->
            match pl with
            | None -> ()
            | Some pl ->
              if pl.Schedule.node <> v then
                invalid_arg "List_mapper.run: pinned placement mislabeled";
              state.placements.(v) <- Some pl;
              Array.iter
                (fun (w, _e) -> state.pending.(w) <- state.pending.(w) - 1)
                (Dag.succs dag v))
          pin.(i))
      states);
  let is_pinned i v =
    match pinned with
    | None -> false
    | Some pin -> pin.(i).(v) <> None
  in
  let proc_avail =
    match avail with
    | None -> Array.make (P.total_procs platform) 0.
    | Some a ->
      if Array.length a <> P.total_procs platform then
        invalid_arg "List_mapper.run: avail length differs from platform";
      (* Finite availabilities are what the packing bound relies on. *)
      Array.iter
        (fun t ->
          if not (Float.is_finite t) || t < 0. then
            invalid_arg "List_mapper.run: negative or non-finite avail")
        a;
      Array.copy a
  in
  (* Per-cluster live processors: everything without a mask, survivors
     only under one. New placements land on live processors exclusively;
     pinned history (including completed work on processors that died
     later) is untouched. *)
  let groups =
    Array.init (P.cluster_count platform) (fun k ->
        let c = P.cluster platform k in
        let base = P.first_proc platform k in
        let all = Array.init c.P.procs (fun i -> base + i) in
        match up with
        | None -> all
        | Some u ->
          Array.of_list (List.filter (fun p -> u.(p)) (Array.to_list all)))
  in
  let avail_idx = Avail_index.create ~avail:proc_avail ~groups in
  let timeline =
    lazy
      (let t = Mcs_util.Timeline.create ~procs:(P.total_procs platform) in
       (* An occupied prefix [0, avail(p)) models both past time and the
          tail of tasks still running on p. *)
       Array.iteri
         (fun p a ->
           if a > 0. then
             Mcs_util.Timeline.reserve t ~proc:p ~start:0. ~finish:a)
         proc_avail;
       t)
  in
  let floor = ref 0. in
  (* [with_span] (not bare enter/leave) so that a raising placement —
     e.g. an ill-formed allocation surfacing as Invalid_argument — still
     closes the span and leaves the profile stack balanced. *)
  let commit i v =
    Obs.with_span "mapper.place" @@ fun () ->
    let state = states.(i) in
    let pl =
      match options.ordering with
      | Global_backfill ->
        place_task_backfill platform ref_cluster (Lazy.force timeline) groups
          state v
          ~floor:(Float.max release.(i) (node_floor i v))
          ~virtual_floor:release.(i)
      | Ready_tasks | Global_fcfs ->
        let fcfs_floor =
          match options.ordering with
          | Global_fcfs -> !floor
          | Ready_tasks | Global_backfill -> 0.
        in
        place_task platform ref_cluster avail_idx proc_avail state v
          ~packing:options.packing
          ~floor:
            (Float.max release.(i) (Float.max fcfs_floor (node_floor i v)))
          ~virtual_floor:release.(i)
    in
    state.placements.(v) <- Some pl;
    if not (Ptg.is_virtual state.ptg v) then Obs.incr c_tasks_mapped;
    (match options.ordering with
    | Global_fcfs ->
      (* No backfilling: later queue entries may not start earlier than
         this task did. Virtual tasks are bookkeeping, not queue jobs. *)
      if not (Ptg.is_virtual state.ptg v) then
        floor := Float.max !floor pl.Schedule.start
    | Ready_tasks | Global_backfill -> ());
    pl
  in
  (match options.ordering with
  | Ready_tasks ->
    let heap = Mcs_util.Heap.create ~cmp:entry_cmp in
    let push i v =
      Mcs_util.Heap.push heap
        {
          priority = states.(i).bl.(v);
          app = i;
          topo_rank = states.(i).topo_rank.(v);
          node = v;
        };
      Obs.record_max c_ready_peak (Mcs_util.Heap.length heap)
    in
    Array.iteri
      (fun i state ->
        for v = 0 to Dag.node_count state.ptg.Ptg.dag - 1 do
          if state.pending.(v) = 0 && not (is_pinned i v) then push i v
        done)
      states;
    let rec drain () =
      match Mcs_util.Heap.pop heap with
      | None -> ()
      | Some { app = i; node = v; _ } ->
        ignore (commit i v);
        let state = states.(i) in
        Array.iter
          (fun (w, _e) ->
            state.pending.(w) <- state.pending.(w) - 1;
            if state.pending.(w) = 0 && not (is_pinned i w) then push i w)
          (Dag.succs state.ptg.Ptg.dag v);
        drain ()
    in
    drain ()
  | Global_fcfs | Global_backfill ->
    (* Single static list over all applications, sorted by bottom level.
       Within a PTG the bottom-level order is precedence-compatible
       (ties resolved by topological rank). *)
    let all = ref [] in
    Array.iteri
      (fun i state ->
        for v = 0 to Dag.node_count state.ptg.Ptg.dag - 1 do
          if not (is_pinned i v) then
            all :=
              {
                priority = state.bl.(v);
                app = i;
                topo_rank = state.topo_rank.(v);
                node = v;
              }
              :: !all
        done)
      states;
    let sorted = List.sort entry_cmp !all in
    List.iter (fun { app = i; node = v; _ } -> ignore (commit i v)) sorted);
  Array.to_list
    (Array.map
       (fun state ->
         let placements =
           Array.map
             (fun pl ->
               match pl with
               | Some p -> p
               | None -> assert false (* every node gets mapped *))
             state.placements
         in
         Schedule.make ~ptg:state.ptg ~placements)
       states)
