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
let c_candidates_priced = Obs.counter "mapper.candidates_priced"
let c_ready_peak = Obs.counter "mapper.ready_peak"
let c_avail_reorders = Obs.counter "mapper.avail_reorders"
let c_backfill_slots = Obs.counter "mapper.backfill_slots"

type ordering = Ready_tasks | Global_fcfs | Global_backfill

type options = {
  ordering : ordering;
  packing : bool;
}

let default_options = { ordering = Ready_tasks; packing = true }

(* One application's memo entry, kept by a session under the caller's
   id. [topo_rank] is a function of the DAG alone, and [seq] and
   [virt] of the PTG and the session's platform, so they hold as long
   as the entry does; [bl] is a function of the DAG, the allocation and
   the reference speed, and is recomputed only when [alloc] or [speed]
   differ from the map's. Node [v]'s width row, [width] and [exec] at
   [v * nc + k], holds the width its allocation [row_alloc.(v)]
   translates to on each cluster and the execution time at that width:
   a function of the allocation, the reference speed, the task and the
   platform. [refresh_row] refreshes a row whose [row_alloc] differs
   from [alloc] when the node is placed, and [prepare] marks every row
   stale when the speed changes. [pending] is per-map state, reset by every
   map; the placements are the caller's. *)
type app_state = {
  ptg : Ptg.t;
  alloc : int array;                    (* the allocation of [bl] *)
  mutable speed : float;                (* the reference speed of [bl] *)
  bl : float array;                     (* bottom levels (priorities) *)
  topo_rank : int array;
  seq : float array;                    (* [v * nc + k] -> sequential time *)
  virt : bool array;                    (* [Ptg.is_virtual] per node *)
  width : int array;                    (* [v * nc + k] -> translated width *)
  exec : float array;                   (* [v * nc + k] -> time at [width] *)
  row_alloc : int array;                (* the allocation of a row, 0: none *)
  pending : int array;                  (* unmapped predecessor count *)
  mutable map_id : int;                 (* the last map that used it *)
}

let new_state platform ptg =
  let n = Dag.node_count ptg.Ptg.dag in
  let nc = P.cluster_count platform in
  let topo_rank = Array.make n 0 in
  Array.iteri
    (fun rank v -> topo_rank.(v) <- rank)
    (Dag.topological_order ptg.Ptg.dag);
  let seq = Array.make (n * nc) 0. in
  for k = 0 to nc - 1 do
    let gflops = (P.cluster platform k).P.gflops in
    for v = 0 to n - 1 do
      seq.((v * nc) + k) <- Task.seq_time ptg.Ptg.tasks.(v) ~gflops
    done
  done;
  {
    ptg;
    alloc = Array.make n 0;
    speed = Float.nan;
    bl = Array.make n 0.;
    topo_rank;
    seq;
    virt = Array.init n (Ptg.is_virtual ptg);
    width = Array.make (n * nc) 0;
    exec = Array.make (n * nc) 0.;
    row_alloc = Array.make n 0;
    pending = Array.make n 0;
    map_id = -1;
  }

(* Bring node [v]'s width row up to date with its allocation: the same
   [Reference_cluster.translate] and [Task.time_of_seq_into] the
   placement would otherwise call per cluster, stored in float and int
   arrays, which hold them exactly. *)
let refresh_row platform ref_cluster nc state v =
  let a = state.alloc.(v) in
  if state.row_alloc.(v) <> a then begin
    let task = state.ptg.Ptg.tasks.(v) and o = v * nc in
    for k = 0 to nc - 1 do
      let w = Reference_cluster.translate ref_cluster platform ~cluster:k a in
      state.width.(o + k) <- w;
      Task.time_of_seq_into task ~procs:w state.seq (o + k) state.exec (o + k)
    done;
    state.row_alloc.(v) <- a
  end

(* Placement scratch. [place_task] prices every ready task on every
   cluster, and the mapper runs on every reschedule: allocating that
   working set per (task, cluster) fills minor heaps, and with shard
   domains each minor collection stops them all (DESIGN.md sections 10
   and 12). A session owns one, so concurrent sessions on other domains
   never share it; every map resets [f_fcfs], the only field it reads
   before writing. *)
type scratch = {
  nc : int;                            (* cluster count *)
  route : float array;                 (* [src * nc + dst] -> bandwidth *)
  nic : float;
  latency : float;
  (* Predecessors of the task being placed, in [Dag.preds] order. *)
  mutable p_finish : float array;
  mutable p_bytes : float array;
  mutable p_cluster : int array;
  mutable p_procs : int array array;
  mutable p_in_place : bool array;
  stamp : int array;                   (* processor -> in-place test tag *)
  mutable tag : int;
  mutable agg_senders : int;
  (* The best candidate so far: the window
     [b_order.(b_lo) .. b_order.(b_lo + b_width - 1)] of cluster
     [b_cluster], with [b_cluster < 0] while there is none, and whether
     it is a packing candidate (narrower than the full width priced on
     its cluster). Losing candidates never materialise their processor
     set. *)
  mutable b_order : int array;
  mutable b_lo : int;
  mutable b_width : int;
  mutable b_cluster : int;
  mutable b_packed : bool;
  f : float array;                     (* indexed by the [f_*] slots *)
  (* The live clusters in the order [place_task] visits them, ascending
     by their lower bound on finish, with each one's full width, its
     execution time and the bound. *)
  visit : int array;
  visit_needed : int array;
  visit_exec : float array;
  visit_lb : float array;
  mutable weights : float array;       (* node -> execution time, for [bl] *)
}

(* Float slots of [scratch.f]: the candidate being priced, the best
   one, the per-task inputs of the pricing, the Global_fcfs
   no-backfilling bound (the latest start of a real task so far), and
   the packing search's data-ready bound. *)
let f_start = 0
let f_finish = 1
let f_best_start = 2
let f_best_finish = 3
let f_exec = 4
let f_ready = 5
let f_floor = 6
let f_virtual_floor = 7
let f_pred_finish = 8
let f_agg_total = 9
let f_agg_last = 10
let f_fcfs = 11
let f_data_ready = 12

(* The width of a task on a cluster with [live] processors up, from
   its row at [slot], and its execution time into [f_exec]. A width the
   mask caps is timed here. *)
let capped_width s state task slot live =
  let width = state.width.(slot) in
  if live >= width then begin
    s.f.(f_exec) <- state.exec.(slot);
    width
  end
  else begin
    Task.time_of_seq_into task ~procs:live state.seq slot s.f f_exec;
    live
  end

let create_scratch platform =
  let nc = P.cluster_count platform in
  let route = Array.make (nc * nc) 0. in
  for src = 0 to nc - 1 do
    for dst = 0 to nc - 1 do
      route.((src * nc) + dst) <-
        Redistribution.route_bandwidth platform ~src_cluster:src
          ~dst_cluster:dst
    done
  done;
  {
    nc;
    route;
    nic = P.nic_bandwidth platform;
    latency = P.latency platform;
    p_finish = [||];
    p_bytes = [||];
    p_cluster = [||];
    p_procs = [||];
    p_in_place = [||];
    stamp = Array.make (P.total_procs platform) (-1);
    tag = 0;
    agg_senders = 0;
    b_order = [||];
    b_lo = 0;
    b_width = 0;
    b_cluster = -1;
    b_packed = false;
    f = Array.make 13 0.;
    visit = Array.make nc 0;
    visit_needed = Array.make nc 0;
    visit_exec = Array.make nc 0.;
    visit_lb = Array.make nc 0.;
    weights = [||];
  }

(* [Float.max] and [Float.min] without their runtime calls: the
   stdlib's inlined versions test sign bits through [caml_signbit], a C
   call, whenever the first comparison fails. Each helper returns one of
   its operands and equals the [Float] function bit for bit on every
   non-NaN pair, signed zeros included (of [-0.] and [+0.], in either
   order, [fmax] returns [+0.] and [fmin] [-0.]). No NaN reaches them:
   [map] rejects non-finite releases, availabilities and task floors.
   They stay local because under the dev profile's [-opaque] a helper in
   another module is a real call that boxes its floats. *)
let[@inline] fmax (x : float) y =
  if y > x then y
  else if x > y || x <> 0. then x
  else if 1. /. x < 0. then y
  else x

let[@inline] fmin (x : float) y =
  if y < x then y
  else if x < y || y <> 0. then x
  else if 1. /. y < 0. then y
  else x

(* Load the predecessors of [v] (all placed, by readiness) into the
   scratch, growing its arrays to the largest in-degree seen, and
   return their count. Also sum what depends on neither cluster nor
   width: the latest predecessor finish, and the aggregate-NIC totals
   over the predecessors that send data. *)
let load_preds s ptg placements v =
  let preds = Dag.preds ptg.Ptg.dag v in
  let np = Array.length preds in
  if np > Array.length s.p_finish then begin
    let cap = Int.max np (2 * Array.length s.p_finish) in
    s.p_finish <- Array.make cap 0.;
    s.p_bytes <- Array.make cap 0.;
    s.p_cluster <- Array.make cap 0;
    s.p_procs <- Array.make cap [||];
    s.p_in_place <- Array.make cap false
  end;
  for i = 0 to np - 1 do
    let u, e = preds.(i) in
    let pu =
      match placements.(u) with
      | Some p -> p
      | None -> assert false (* guaranteed by readiness *)
    in
    s.p_finish.(i) <- pu.Schedule.finish;
    s.p_bytes.(i) <- ptg.Ptg.edge_bytes.(e);
    s.p_cluster.(i) <- pu.Schedule.cluster;
    s.p_procs.(i) <- pu.Schedule.procs
  done;
  let finish = ref 0. in
  let total = ref 0. and last = ref 0. and senders = ref 0 in
  for i = 0 to np - 1 do
    finish := fmax !finish s.p_finish.(i);
    if s.p_bytes.(i) > 0. then begin
      total := !total +. s.p_bytes.(i);
      last := fmax !last s.p_finish.(i);
      incr senders
    end
  done;
  s.f.(f_pred_finish) <- !finish;
  s.f.(f_agg_total) <- !total;
  s.f.(f_agg_last) <- !last;
  s.agg_senders <- !senders;
  np

(* Offer the candidate in [f_start]/[f_finish] — the window
   [order.(lo) .. order.(lo + width - 1)] of cluster [k], a packing
   candidate if [packed] — against the best so far. An exact order:
   smaller finish, then smaller start, then the wider allocation, then
   the lower cluster index. No two candidates tie on all four, so the
   winner does not depend on the order they are offered in. *)
let offer s order k lo width ~packed =
  let f = s.f in
  let wins =
    s.b_cluster < 0
    ||
    let cf = f.(f_finish) and bf = f.(f_best_finish) in
    cf < bf
    || cf = bf
       &&
       let cs = f.(f_start) and bs = f.(f_best_start) in
       cs < bs
       || cs = bs
          && (width > s.b_width || (width = s.b_width && k < s.b_cluster))
  in
  if wins then begin
    s.b_order <- order;
    s.b_lo <- lo;
    s.b_width <- width;
    s.b_cluster <- k;
    s.b_packed <- packed;
    f.(f_best_start) <- f.(f_start);
    f.(f_best_finish) <- f.(f_finish)
  end

(* Redistribution cost of predecessor [i] towards [p'] processors of
   cluster [k]: latency + bytes over the NIC/route-limited rate. *)
let[@inline] cost s k i p' =
  let bytes = s.p_bytes.(i) in
  if bytes <= 0. then 0.
  else
    let rate =
      fmin
        (float_of_int (Int.min (Int.max 1 (Array.length s.p_procs.(i))) p')
        *. s.nic)
        s.route.((s.p_cluster.(i) * s.nc) + k)
    in
    s.latency +. (bytes /. rate)

(* Whether predecessor [i] ran on exactly the window
   [order.(lo) .. order.(lo + p' - 1)] of cluster [k]. The window holds
   distinct ids, so it equals the predecessor's set iff every
   predecessor processor is found in it once: each one found consumes
   its tag. *)
let in_place s order k lo p' i =
  s.p_cluster.(i) = k
  && Array.length s.p_procs.(i) = p'
  && begin
    s.tag <- s.tag + 1;
    let tag = s.tag in
    for j = lo to lo + p' - 1 do
      s.stamp.(order.(j)) <- tag
    done;
    let procs = s.p_procs.(i) in
    let found = ref true in
    for j = 0 to p' - 1 do
      let q = procs.(j) in
      if s.stamp.(q) = tag then s.stamp.(q) <- -1 else found := false
    done;
    !found
  end

(* All incoming transfers funnel through the p' destination NICs; when
   several predecessors send data ([total] bytes, the last of them
   finishing at [last]), their aggregate bounds the data-ready time
   too. *)
let[@inline] aggregate s ~senders ~last ~total p' =
  if senders <= 1 then 0.
  else last +. s.latency +. (total /. (float_of_int p' *. s.nic))

(* Earliest data-ready time with [p'] processors of cluster [k],
   pessimistically assuming every incoming transfer is paid, into
   [f_ready]. *)
let data_ready s k np p' =
  let f = s.f in
  let aggregate =
    aggregate s ~senders:s.agg_senders ~last:f.(f_agg_last)
      ~total:f.(f_agg_total) p'
  in
  let acc = ref 0. in
  for i = 0 to np - 1 do
    acc := fmax !acc (s.p_finish.(i) +. cost s k i p')
  done;
  f.(f_ready) <- fmax aggregate !acc

(* Price [p'] processors of cluster [k] for a task running [f_exec]
   seconds: write its start and finish to [f_start]/[f_finish] and
   return the start [lo] of its window in [order], the cluster's
   processors in (availability, id) order. *)
let price s proc_avail order k np p' =
  Obs.incr c_candidates_priced;
  let f = s.f in
  let floor = f.(f_floor) in
  data_ready s k np p';
  let data_ready0 = f.(f_ready) in
  let start0 =
    fmax floor (fmax data_ready0 proc_avail.(order.(p' - 1)))
  in
  (* Best fit: among the processors available by start0, take the
     latest-available ones, leaving the most idle processors free for
     tasks that are ready now (this is what lets a small PTG slip in
     beside a large one, Figure 1). [order] is sorted by availability,
     so the boundary is a binary search. *)
  let fits_until =
    let bound = start0 +. Floatx.eps in
    let lo = ref p' and hi = ref (Array.length order) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if proc_avail.(order.(mid)) <= bound then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  let lo = fits_until - p' in
  (* The in-place rule may cancel transfers from predecessors that ran
     on exactly the chosen processors; when no predecessor ran on this
     cluster with this width, nothing can be cancelled and the
     pessimistic bound is already exact. *)
  let may_cancel = ref false in
  for i = 0 to np - 1 do
    if
      s.p_bytes.(i) > 0. && s.p_cluster.(i) = k
      && Array.length s.p_procs.(i) = p'
    then may_cancel := true
  done;
  let data_ready =
    if not !may_cancel then data_ready0
    else begin
      for i = 0 to np - 1 do
        s.p_in_place.(i) <- s.p_bytes.(i) > 0. && in_place s order k lo p' i
      done;
      let total = ref 0. and last = ref 0. and senders = ref 0 in
      for i = 0 to np - 1 do
        if s.p_bytes.(i) > 0. && not s.p_in_place.(i) then begin
          total := !total +. s.p_bytes.(i);
          last := fmax !last s.p_finish.(i);
          incr senders
        end
      done;
      let aggregate =
        aggregate s ~senders:!senders ~last:!last ~total:!total p'
      in
      let acc = ref 0. in
      for i = 0 to np - 1 do
        let ci = if s.p_in_place.(i) then 0. else cost s k i p' in
        acc := fmax !acc (s.p_finish.(i) +. ci)
      done;
      fmax aggregate !acc
    end
  in
  (* The window is availability-sorted, so its availability maximum is
     its last element's. *)
  let avail = fmax 0. proc_avail.(order.(fits_until - 1)) in
  let start = fmax floor (fmax data_ready avail) in
  f.(f_start) <- start;
  f.(f_finish) <- start +. f.(f_exec);
  lo

(* Count [n] into a counter without allocating [Some n] when the
   recorder is off. *)
let add c n = if Obs.enabled () then Obs.incr ~by:n c

(* The best candidate's placement, its processors copied out of the
   window. Only reachable with no candidate when a fault mask leaves no
   live processor (allocations are capped to fit a cluster). *)
let best_placement s v =
  if s.b_cluster < 0 then
    invalid_arg "List_mapper.map: no live cluster can host a task";
  {
    Schedule.node = v;
    cluster = s.b_cluster;
    procs = Array.sub s.b_order s.b_lo s.b_width;
    start = s.f.(f_best_start);
    finish = s.f.(f_best_finish);
  }

(* Virtual entry/exit: no processors, no duration; starts as soon as all
   predecessors are done. *)
let virtual_placement s v np =
  let start = ref s.f.(f_virtual_floor) in
  for i = 0 to np - 1 do
    start := fmax !start s.p_finish.(i)
  done;
  let start = !start in
  { Schedule.node = v; cluster = 0; procs = [||]; start; finish = start }

(* The earliest start of a candidate on a cluster whose processors are
   [order], data-ready no earlier than [ready] and with a window ending
   at or after [order.(j)]: [price] starts it at [max floor (max
   data_ready avail)], its window's availability is at least
   [order.(j)]'s ([order] is availability-sorted), and [fmax] rounds
   nothing: it returns one of its operands. *)
let[@inline] start_bound floor ready proc_avail order j =
  fmax floor (fmax ready (fmax 0. proc_avail.(order.(j))))

(* The packing search on cluster [k], once its full width [needed] is
   priced into [f_start]/[f_finish]/[f_ready] and offered. The
   allocation may shrink only if the task then starts strictly earlier
   and finishes no later than with its original allocation (Section 5),
   and a narrower candidate still has to win [offer]. A data-ready bound
   and a finish stop skip the widths that cannot do both (DESIGN.md
   section 10); every width considered counts as an attempt, priced or
   not. *)
let pack s task state proc_avail order k np slot needed =
  let f = s.f in
  let floor = f.(f_floor) in
  let full_start = f.(f_start) and full_finish = f.(f_finish) in
  (* No narrower width is data-ready before the full width's pessimistic
     data-ready time: every transfer cost and the aggregate-NIC term
     only grow as the width shrinks. The exception is a predecessor that
     sent data from fewer processors of [k], whose transfer the in-place
     rule may cancel; then only the latest predecessor finish bounds
     it. *)
  let in_place = ref false in
  for i = 0 to np - 1 do
    if
      s.p_bytes.(i) > 0. && s.p_cluster.(i) = k
      && Array.length s.p_procs.(i) < needed
    then in_place := true
  done;
  f.(f_data_ready) <- (if !in_place then f.(f_pred_finish) else f.(f_ready));
  let lb = start_bound floor f.(f_data_ready) proc_avail order 0 in
  if lb >= full_start -. Floatx.eps then add c_packing_attempts (needed - 1)
  else begin
    Obs.enter "mapper.packing";
    match
      let p' = ref (needed - 1) in
      while !p' >= 1 do
        Task.time_of_seq_into task ~procs:!p' state.seq slot f f_exec;
        (* The execution time does not fall as the width falls, so a
           width that finishes after the full one, or loses [offer] to
           the best so far, rules out every narrower one too. *)
        let finish = lb +. f.(f_exec) in
        if
          finish > full_finish +. Floatx.eps
          || f.(f_best_finish) < finish -. Floatx.eps
        then begin
          add c_packing_attempts !p';
          p' := 0
        end
        else begin
          Obs.incr c_packing_attempts;
          (* A width is not priced if its window cannot start strictly
             earlier, or if, started at its own bound [sb], it would
             lose [offer]: [price] starts it at or after [sb], and float
             addition is monotone. The best finish is at most the full
             width's, so a width that finishes too late loses [offer]
             too. [sb] falls as the width falls, so the loop goes on. *)
          let sb =
            start_bound floor f.(f_data_ready) proc_avail order (!p' - 1)
          in
          if
            sb < full_start -. Floatx.eps
            && not (f.(f_best_finish) < sb +. f.(f_exec))
          then begin
            let lo = price s proc_avail order k np !p' in
            if
              f.(f_start) < full_start -. Floatx.eps
              && f.(f_finish) <= full_finish +. Floatx.eps
            then offer s order k lo !p' ~packed:true
          end;
          decr p'
        end
      done
    with
    | () -> Obs.leave ()
    | exception e ->
      Obs.leave ();
      raise e
  end

(* Map one task and return its placement. [f_floor] bounds the start of
   real tasks (submission time, plus the FCFS no-backfilling bound in
   Global_fcfs mode); [f_virtual_floor] bounds virtual entry/exit nodes
   (submission time only — the queue does not apply to them).

   [avail_idx] keeps each cluster's processors permanently sorted by
   (availability, id) — the order the former implementation re-derived
   with a per-task Array.sort — and [proc_avail] is the availability
   array shared with it. Everything that does not depend on the
   candidate width p' (route bandwidths, the aggregate NIC sums, the
   task's sequential time on each cluster) is computed once per session,
   entry or task and reused across all clusters and packing candidates.
   [offer]'s order is exact, so the winner does not depend on the
   order clusters are visited in, and a cluster or width is priced only
   if a lower bound leaves it a chance to win (DESIGN.md section 10):
   the placements are bit-identical to the exhaustive search. Clusters
   are visited in ascending order of their bound, so a good candidate is
   held early and the bound skips the clusters that cannot beat it. The
   winner is a window of its cluster's view, and committing it moves
   that window alone. *)
let place_task s platform ref_cluster avail_idx proc_avail state placements v
    ~packing =
  let ptg = state.ptg in
  let np = load_preds s ptg placements v in
  if state.virt.(v) then virtual_placement s v np
  else begin
    let task = ptg.Ptg.tasks.(v) in
    refresh_row platform ref_cluster s.nc state v;
    let o = v * s.nc in
    let f = s.f in
    let floor = f.(f_floor) in
    (* Bound every live cluster and insert it into the visit order. The
       processors of cluster k are ordered by (availability, id) — a
       read-only view maintained incrementally across commits. Under a
       fault mask the view holds the live processors only; a width is
       capped to what survives, and a fully-down cluster offers no
       candidate at all. No candidate on k is data-ready before the
       latest predecessor finish (a transfer cost is never negative),
       and none runs shorter than the full width, so [lb] bounds the
       finish of each. The insertion is stable: equal bounds keep index
       order. *)
    let live = ref 0 in
    for k = 0 to s.nc - 1 do
      let order = Avail_index.sorted avail_idx k in
      if Array.length order > 0 then begin
        let needed = capped_width s state task (o + k) (Array.length order) in
        let exec = f.(f_exec) in
        let lb =
          start_bound floor f.(f_pred_finish) proc_avail order 0 +. exec
        in
        let j = ref !live in
        while !j > 0 && s.visit_lb.(!j - 1) > lb do
          let i = !j - 1 in
          s.visit.(!j) <- s.visit.(i);
          s.visit_needed.(!j) <- s.visit_needed.(i);
          s.visit_exec.(!j) <- s.visit_exec.(i);
          s.visit_lb.(!j) <- s.visit_lb.(i);
          j := i
        done;
        s.visit.(!j) <- k;
        s.visit_needed.(!j) <- needed;
        s.visit_exec.(!j) <- exec;
        s.visit_lb.(!j) <- lb;
        incr live
      end
    done;
    s.b_cluster <- -1;
    for i = 0 to !live - 1 do
      let k = s.visit.(i) and needed = s.visit_needed.(i) in
      (* When even the bound loses [offer] to the best so far, so does
         every candidate on k: the cluster is not priced, and its
         packing widths count as attempts. *)
      if s.b_cluster >= 0 && f.(f_best_finish) < s.visit_lb.(i) -. Floatx.eps
      then begin
        if packing && needed > 1 then add c_packing_attempts (needed - 1)
      end
      else begin
        let order = Avail_index.sorted avail_idx k in
        f.(f_exec) <- s.visit_exec.(i);
        let lo = price s proc_avail order k np needed in
        offer s order k lo needed ~packed:false;
        if packing && needed > 1 then
          pack s task state proc_avail order k np (o + k) needed
      end
    done;
    let pl = best_placement s v in
    if s.b_packed then Obs.incr c_packing_wins;
    (* The window's availabilities are at most the task's start. *)
    Avail_index.commit avail_idx s.b_cluster ~lo:s.b_lo ~width:s.b_width
      pl.Schedule.finish;
    add c_avail_reorders s.b_width;
    pl
  end

(* Conservative-backfilling placement: earliest hole in the reservation
   timelines large enough for the translated allocation, searched over
   every cluster. Existing reservations never move, so no earlier-queued
   task can be delayed — the defining property of conservative
   backfilling. *)
let place_task_backfill s platform ref_cluster timeline subsets state
    placements v =
  let ptg = state.ptg in
  let np = load_preds s ptg placements v in
  if state.virt.(v) then virtual_placement s v np
  else begin
    let task = ptg.Ptg.tasks.(v) in
    refresh_row platform ref_cluster s.nc state v;
    let o = v * s.nc in
    let floor = s.f.(f_floor) in
    s.b_cluster <- -1;
    for k = 0 to s.nc - 1 do
      (* Live processors of cluster k; a fault mask may shrink or empty
         the subset, capping the width exactly as in [place_task]. *)
      let subset = subsets.(k) in
      if Array.length subset > 0 then begin
      let needed = capped_width s state task (o + k) (Array.length subset) in
      let exec = s.f.(f_exec) in
      data_ready s k np needed;
      let after = fmax floor s.f.(f_ready) in
      (match
         Mcs_util.Timeline.find_slot ~procs_subset:subset timeline
           ~count:needed ~duration:exec ~after
       with
      | None -> ()
      | Some (start, procs) ->
        Obs.incr c_backfill_slots;
        s.f.(f_start) <- start;
        s.f.(f_finish) <- start +. exec;
        offer s procs k 0 (Array.length procs) ~packed:false)
      end
    done;
    let pl = best_placement s v in
    Array.iter
      (fun p ->
        Mcs_util.Timeline.reserve timeline ~proc:p ~start:pl.Schedule.start
          ~finish:pl.Schedule.finish)
      pl.Schedule.procs;
    pl
  end

(* A session keeps what one map leaves for the next: the scratch and
   the ready heap's buffers, the availability array with the index and groups
   built over it for the mask in [live], and the memo. *)
type session = {
  platform : P.t;
  scratch : scratch;
  heap : Mcs_util.Heap.t;               (* the ready heap, see [map] *)
  avail : float array;                  (* shared with [index] *)
  live : bool array;                    (* the mask [groups] were built for *)
  mutable groups : int array array;     (* live processors per cluster *)
  mutable index : Avail_index.t;
  memo : (int, app_state) Hashtbl.t;
  mutable maps : int;                   (* map calls so far *)
}

(* Per-cluster live processors. New placements land on live processors
   exclusively; pinned history (including completed work on processors
   that died later) is untouched. *)
let live_groups platform live =
  Array.init (P.cluster_count platform) (fun k ->
      let base = P.first_proc platform k in
      let all = Array.init (P.cluster platform k).P.procs (fun i -> base + i) in
      if Array.for_all (fun p -> live.(p)) all then all
      else Array.of_list (List.filter (fun p -> live.(p)) (Array.to_list all)))

let session platform =
  let total = P.total_procs platform in
  let avail = Array.make total 0. in
  let live = Array.make total true in
  let groups = live_groups platform live in
  {
    platform;
    scratch = create_scratch platform;
    heap = Mcs_util.Heap.create ();
    avail;
    live;
    groups;
    index = Avail_index.create ~avail ~groups;
    memo = Hashtbl.create 16;
    maps = 0;
  }

(* With no application left, the ready heap's buffers go too: an idle
   session keeps nothing sized by past load. *)
let forget session id =
  Hashtbl.remove session.memo id;
  if Hashtbl.length session.memo = 0 then Mcs_util.Heap.release session.heap

(* The memo entry of application [id] for this map, its bottom levels
   brought up to date. An entry stays valid while [id] maps to the same
   PTG (physical equality). *)
let prepare session ref_cluster (id, ptg, alloc) =
  let dag = ptg.Ptg.dag in
  let n = Dag.node_count dag in
  if Array.length alloc <> n then
    invalid_arg "List_mapper.map: allocation length differs from node count";
  Array.iter
    (fun a -> if a < 1 then invalid_arg "List_mapper.map: allocation < 1")
    alloc;
  let state =
    match Hashtbl.find session.memo id with
    | state when state.map_id = session.maps ->
      invalid_arg "List_mapper.map: duplicate application id"
    | state when state.ptg == ptg -> state
    | _ | (exception Not_found) ->
      let state = new_state session.platform ptg in
      Hashtbl.replace session.memo id state;
      state
  in
  state.map_id <- session.maps;
  let speed = ref_cluster.Reference_cluster.speed in
  let same = ref (state.speed = speed) in
  (* A new speed translates every allocation anew. *)
  if not !same then Array.fill state.row_alloc 0 n 0;
  for v = 0 to n - 1 do
    if state.alloc.(v) <> alloc.(v) then same := false
  done;
  if not !same then begin
    Array.blit alloc 0 state.alloc 0 n;
    state.speed <- speed;
    let s = session.scratch in
    if Array.length s.weights < n then s.weights <- Array.make n 0.;
    for v = 0 to n - 1 do
      s.weights.(v) <-
        Reference_cluster.exec_time ref_cluster ptg.Ptg.tasks.(v)
          ~procs:alloc.(v)
    done;
    Dag.fill_bottom_levels dag s.weights state.bl
  end;
  for v = 0 to n - 1 do
    state.pending.(v) <- Dag.in_degree dag v
  done;
  state

(* Every map writes its placements into the caller's [placements]:
   [placements.(i).(v) = Some pl] on entry pins node [v] of application
   [i], and every [None] is filled. *)
let map ?(options = default_options) ?release ?avail ?up ?task_floor session
    ref_cluster apps ~placements =
  if apps = [] then invalid_arg "List_mapper.map: no applications";
  Obs.with_span "mapper.run" @@ fun () ->
  let platform = session.platform in
  session.maps <- session.maps + 1;
  (match up with
  | Some u when Array.length u <> P.total_procs platform ->
    invalid_arg "List_mapper.map: up length differs from platform"
  | _ -> ());
  let release =
    match release with
    | None -> Array.make (List.length apps) 0.
    | Some r ->
      if Array.length r <> List.length apps then
        invalid_arg "List_mapper.map: release length differs from apps";
      Array.iter
        (fun t ->
          if not (Float.is_finite t) || t < 0. then
            invalid_arg "List_mapper.map: negative or non-finite release")
        r;
      Array.copy r
  in
  let states =
    Obs.with_span "mapper.prepare" @@ fun () ->
    Array.of_list (List.map (prepare session ref_cluster) apps)
  in
  (* Per-task start floors (retry backoff under fault recovery): max'd
     with the application release time and the FCFS bound below. *)
  (match task_floor with
  | None -> ()
  | Some f ->
    if Array.length f <> Array.length states then
      invalid_arg "List_mapper.map: task_floor length differs from apps";
    Array.iteri
      (fun i state ->
        if Array.length f.(i) <> Dag.node_count state.ptg.Ptg.dag then
          invalid_arg "List_mapper.map: task_floor node count differs from DAG";
        Array.iter
          (fun t ->
            if not (Float.is_finite t) || t < 0. then
              invalid_arg "List_mapper.map: ill-formed task floor")
          f.(i))
      states);
  let node_floor i v =
    match task_floor with None -> 0. | Some f -> f.(i).(v)
  in
  (* Freeze pinned placements: they count as already mapped (successors'
     pending counts drop) but are never (re)placed, and their processor
     occupancy is carried by [avail] rather than re-reserved here. *)
  if Array.length placements <> Array.length states then
    invalid_arg "List_mapper.map: pinned length differs from apps";
  Array.iteri
    (fun i state ->
      let dag = state.ptg.Ptg.dag and pls = placements.(i) in
      if Array.length pls <> Dag.node_count dag then
        invalid_arg "List_mapper.map: pinned node count differs from DAG";
      for v = 0 to Array.length pls - 1 do
        match pls.(v) with
        | None -> ()
        | Some pl ->
          if pl.Schedule.node <> v then
            invalid_arg "List_mapper.map: pinned placement mislabeled";
          let succs = Dag.succs dag v in
          for j = 0 to Array.length succs - 1 do
            let w, _e = succs.(j) in
            state.pending.(w) <- state.pending.(w) - 1
          done
      done)
    states;
  (* Only a pinned node is placed before it becomes ready: a node is
     placed once popped, and it is pushed when its last predecessor is
     placed. So wherever this is asked, [Some] means pinned. *)
  let is_pinned i v = placements.(i).(v) <> None in
  let proc_avail = session.avail in
  (match avail with
  | None -> Array.fill proc_avail 0 (Array.length proc_avail) 0.
  | Some a ->
    if Array.length a <> Array.length proc_avail then
      invalid_arg "List_mapper.map: avail length differs from platform";
    (* Finite availabilities are what the packing bound and the index's
       sort rely on. *)
    Array.iter
      (fun t ->
        if not (Float.is_finite t) || t < 0. then
          invalid_arg "List_mapper.map: negative or non-finite avail")
      a;
    Array.blit a 0 proc_avail 0 (Array.length a));
  (* The groups and the index follow the mask: rebuilt when it differs
     from the one they were built for, re-sorted from the new profile
     otherwise. *)
  let changed = ref false in
  for p = 0 to Array.length session.live - 1 do
    let live = match up with None -> true | Some u -> u.(p) in
    if live <> session.live.(p) then begin
      session.live.(p) <- live;
      changed := true
    end
  done;
  if !changed then begin
    session.groups <- live_groups platform session.live;
    session.index <- Avail_index.create ~avail:proc_avail ~groups:session.groups
  end
  else Avail_index.reset session.index;
  let groups = session.groups and avail_idx = session.index in
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
  let s = session.scratch in
  (* What a map reads before writing: the Global_fcfs bound, and a heap
     that a raising map may have left non-empty. *)
  s.f.(f_fcfs) <- 0.;
  let heap = session.heap in
  Mcs_util.Heap.clear heap;
  let place i v =
    let state = states.(i) in
    let f = s.f in
    f.(f_virtual_floor) <- release.(i);
    let pl =
      match options.ordering with
      | Global_backfill ->
        f.(f_floor) <- fmax release.(i) (node_floor i v);
        place_task_backfill s platform ref_cluster (Lazy.force timeline)
          groups state placements.(i) v
      | Ready_tasks | Global_fcfs ->
        (* [f_fcfs] only moves in Global_fcfs mode. *)
        f.(f_floor) <-
          fmax release.(i) (fmax f.(f_fcfs) (node_floor i v));
        place_task s platform ref_cluster avail_idx proc_avail state
          placements.(i) v ~packing:options.packing
    in
    placements.(i).(v) <- Some pl;
    if not state.virt.(v) then Obs.incr c_tasks_mapped;
    (match options.ordering with
    | Global_fcfs ->
      (* No backfilling: later queue entries may not start earlier than
         this task did. Virtual tasks are bookkeeping, not queue jobs. *)
      if not state.virt.(v) then
        f.(f_fcfs) <- fmax f.(f_fcfs) pl.Schedule.start
    | Ready_tasks | Global_backfill -> ())
  in
  (* Bare enter/leave rather than a closure per task; the handler still
     closes the span when a placement raises (e.g. an ill-formed
     allocation surfacing as Invalid_argument), so the profile stack
     stays balanced. *)
  let commit i v =
    Obs.enter "mapper.place";
    match place i v with
    | () -> Obs.leave ()
    | exception e ->
      Obs.leave ();
      raise e
  in
  (* The ready heap pops the highest bottom level first (its key is the
     negated priority, which negation keeps exact), then the lowest
     application index, then the lowest topological rank: a total,
     deterministic and precedence-compatible order. Ready_tasks seeds
     it with the ready nodes and pushes each successor as it becomes
     ready. The global orderings push every unpinned node up front: one
     static list over all applications. *)
  let global = options.ordering <> Ready_tasks in
  let push i v =
    let state = states.(i) in
    Mcs_util.Heap.push heap (-.state.bl.(v)) i state.topo_rank.(v) v 0;
    if not global then Obs.record_max c_ready_peak (Mcs_util.Heap.length heap)
  in
  Array.iteri
    (fun i state ->
      for v = 0 to Dag.node_count state.ptg.Ptg.dag - 1 do
        if (global || state.pending.(v) = 0) && not (is_pinned i v) then
          push i v
      done)
    states;
  while not (Mcs_util.Heap.is_empty heap) do
    let i = Mcs_util.Heap.min_int heap 0 and v = Mcs_util.Heap.min_int heap 2 in
    Mcs_util.Heap.drop_min heap;
    commit i v;
    if not global then begin
      let state = states.(i) in
      let succs = Dag.succs state.ptg.Ptg.dag v in
      for j = 0 to Array.length succs - 1 do
        let w, _e = succs.(j) in
        state.pending.(w) <- state.pending.(w) - 1;
        if state.pending.(w) = 0 && not (is_pinned i w) then push i w
      done
    end
  done

(* A map on a fresh session, writing into fresh placement arrays. *)
let run ?options ?release platform ref_cluster apps =
  let placements =
    Array.of_list
      (List.map (fun (ptg, _) -> Array.make (Ptg.node_count ptg) None) apps)
  in
  map ?options ?release (session platform) ref_cluster
    (List.mapi (fun i (ptg, alloc) -> (i, ptg, alloc)) apps)
    ~placements;
  List.mapi
    (fun i (ptg, _) ->
      let placements =
        Array.map
          (function
            | Some p -> p | None -> assert false (* every node gets mapped *))
          placements.(i)
      in
      Schedule.make ~ptg ~placements)
    apps
