module Dag = Mcs_dag.Dag
module Ptg = Mcs_ptg.Ptg
module P = Mcs_platform.Platform
module Redistribution = Mcs_taskmodel.Redistribution
module Schedule = Mcs_sched.Schedule
module Reference_cluster = Mcs_sched.Reference_cluster
module Floatx = Mcs_util.Floatx
open Floatx

(* [Float.min] without its runtime call: the stdlib's inlined version
   tests sign bits through [caml_signbit], a C call, whenever the first
   comparison fails. It returns the operand [Float.min] returns, signed
   zeros and a single NaN included. Local, because under the dev
   profile's [-opaque] a helper in another module is a real call that
   boxes its floats. *)
let[@inline] fmin (x : float) y =
  if y < x then y
  else if x < y then x
  else if x = y then if y = 0. && 1. /. y < 0. then y else x
  else if y <> y then y
  else x

type feed =
  app:int -> node:int -> procs:int array -> start:float -> finish:float -> unit

(* Whether interval [i] sorts strictly before [j]: by processor, then
   start, then finish, where [Float.compare] puts NaN first. *)
let[@inline] before (proc : int array) (start : float array)
    (finish : float array) i j =
  let p = proc.(i) and q = proc.(j) in
  p < q
  || p = q
     &&
     let c = Float.compare start.(i) start.(j) in
     c < 0 || (c = 0 && Float.compare finish.(i) finish.(j) < 0)

(* Stable merge sort of the interval indices in [order] under
   [before]: insertion-sorted runs of 8, then bottom-up merges that take
   from the left run on ties, between [order] and a scratch twin. *)
let sort_intervals proc start finish order =
  let n = Array.length order in
  let a = ref 0 in
  while !a < n do
    let b = Int.min n (!a + 8) in
    for i = !a + 1 to b - 1 do
      let x = order.(i) in
      let j = ref (i - 1) in
      while !j >= !a && before proc start finish x order.(!j) do
        order.(!j + 1) <- order.(!j);
        decr j
      done;
      order.(!j + 1) <- x
    done;
    a := b
  done;
  let src = ref order and dst = ref (Array.make n 0) and width = ref 8 in
  while !width < n do
    let s = !src and d = !dst in
    let a = ref 0 in
    while !a < n do
      let mid = Int.min n (!a + !width) in
      let b = Int.min n (mid + !width) in
      let i = ref !a and j = ref mid and k = ref !a in
      while !i < mid && !j < b do
        if before proc start finish s.(!j) s.(!i) then begin
          d.(!k) <- s.(!j);
          incr j
        end
        else begin
          d.(!k) <- s.(!i);
          incr i
        end;
        incr k
      done;
      Array.blit s !i d !k (mid - !i);
      Array.blit s !j d (!k + mid - !i) (b - !j);
      a := b
    done;
    src := d;
    dst := s;
    width := 2 * !width
  done;
  if !src != order then Array.blit !src 0 order 0 n

let check_overlap ~emit ~rule intervals =
  (* One interval per (placement, processor), in flat arrays sized by a
     counting pass. *)
  let n = ref 0 in
  intervals (fun ~app:_ ~node:_ ~procs ~start:_ ~finish:_ ->
      n := !n + Array.length procs);
  let n = !n in
  let proc = Array.make n 0 and app = Array.make n 0 and node = Array.make n 0 in
  let start = Array.make n 0. and finish = Array.make n 0. in
  let order = Array.make n 0 in
  let k = ref 0 in
  intervals (fun ~app:a ~node:v ~procs ~start:s ~finish:f ->
      for j = 0 to Array.length procs - 1 do
        let i = !k in
        proc.(i) <- procs.(j);
        app.(i) <- a;
        node.(i) <- v;
        start.(i) <- s;
        finish.(i) <- f;
        order.(i) <- i;
        k := i + 1
      done);
  sort_intervals proc start finish order;
  (* Per processor, track the interval with the latest finish seen so
     far: any later interval starting strictly before that finish races
     with it. *)
  let cur = ref (-1) in
  for k = 0 to n - 1 do
    let i = order.(k) in
    let c = !cur in
    let same = c >= 0 && proc.(c) = proc.(i) in
    if same && start.(i) <. finish.(c) then
      emit
        (Diagnostic.error ~app:app.(i) ~node:node.(i) ~proc:proc.(i)
           ~window:(start.(i), fmin finish.(c) finish.(i))
           rule "runs while app %d node %d still holds the processor" app.(c)
           node.(c));
    if not (same && finish.(c) >= finish.(i)) then cur := i
  done

let check_precedence ~emit ~app ~node ~start ~pred ~pred_finish ~cost =
  let ready = pred_finish +. cost in
  if Float.is_finite start && Float.is_finite ready && not (start >=. ready)
  then
    emit
      (Diagnostic.error ~app ~node ~window:(start, ready) Rule.Map_precedence
         "starts at %g but predecessor %d finishes at %g (+%g \
          redistribution)"
         start pred pred_finish cost)

type tags = { seen : int array; mutable stamp : int }

let tags platform = { seen = Array.make (P.total_procs platform) 0; stamp = 0 }

(* Whether every id in [procs] is in range and listed once: one pass
   that stamps each id's slot with a number no earlier call used. *)
let distinct tags (procs : int array) =
  tags.stamp <- tags.stamp + 1;
  let stamp = tags.stamp and seen = tags.seen in
  let n = Array.length seen in
  let ok = ref true and j = ref 0 in
  while !ok && !j < Array.length procs do
    let p = procs.(!j) in
    if p < 0 || p >= n || seen.(p) = stamp then ok := false
    else seen.(p) <- stamp;
    incr j
  done;
  !ok

(* MAP003's duplicate report: each repeat once, in ascending id order. *)
let report_duplicates ~emit ~app ~node procs =
  let sorted = Array.copy procs in
  Array.sort compare sorted;
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then
      emit
        (Diagnostic.error ~app ~node ~proc:sorted.(i) Rule.Map_cluster
           "processor listed twice")
  done

let check_placement ~emit ?platform ?tags ~app ~virt ~release
    (pl : Schedule.placement) =
  let { Schedule.node; cluster; procs; start; finish } = pl in
  let finite = Float.is_finite start && Float.is_finite finish in
  (* MAP001: finite, ordered times. *)
  if not finite then
    emit
      (Diagnostic.error ~app ~node Rule.Map_structure
         "non-finite times %g..%g" start finish)
  else if not (finish >=. start) then
    emit
      (Diagnostic.error ~app ~node ~window:(start, finish) Rule.Map_structure
         "finishes at %g before starting at %g" finish start);
  (* MAP002: virtual tasks are free and instantaneous. *)
  if virt then begin
    if Array.length procs > 0 then
      emit
        (Diagnostic.error ~app ~node Rule.Map_virtual
           "virtual task holds %d processors" (Array.length procs));
    if finite && not (approx_eq start finish) then
      emit
        (Diagnostic.error ~app ~node ~window:(start, finish) Rule.Map_virtual
           "virtual task takes %g seconds" (finish -. start))
  end
  else if Array.length procs = 0 then
    emit
      (Diagnostic.error ~app ~node Rule.Map_virtual
         "real task holds no processor")
  else begin
    (* MAP003: one real cluster, distinct in-range processors. The
       sort that reports duplicates runs only when the tag pass finds
       a repeat or an id it cannot tag. *)
    (match tags with
    | Some t when distinct t procs -> ()
    | Some _ | None -> report_duplicates ~emit ~app ~node procs);
    match platform with
    | None ->
      Array.iter
        (fun p ->
          if p < 0 then
            emit
              (Diagnostic.error ~app ~node ~proc:p Rule.Map_cluster
                 "negative processor id"))
        procs
    | Some pf ->
      if cluster < 0 || cluster >= P.cluster_count pf then
        emit
          (Diagnostic.error ~app ~node Rule.Map_cluster
             "cluster %d does not exist on %s" cluster (P.name pf))
      else
        Array.iter
          (fun p ->
            if p < 0 || p >= P.total_procs pf then
              emit
                (Diagnostic.error ~app ~node ~proc:p Rule.Map_cluster
                   "processor id outside 0..%d" (P.total_procs pf - 1))
            else if P.cluster_of_proc pf p <> cluster then
              emit
                (Diagnostic.error ~app ~node ~proc:p Rule.Map_cluster
                   "processor belongs to cluster %d, task is on %d"
                   (P.cluster_of_proc pf p) cluster))
          procs
  end;
  (* MAP007: nothing before the submission date. *)
  if Float.is_finite start && not (start >=. release) then
    emit
      (Diagnostic.error ~app ~node ~window:(release, start) Rule.Map_release
         "starts at %g before the release at %g" start release)

let check_packing ~emit platform ref_cluster ~app ~alloc
    (pl : Schedule.placement) =
  let { Schedule.node; cluster; procs; _ } = pl in
  (* A missing cluster is MAP003's and an allocation below one
     processor ALLOC001's: neither has a translation to compare. *)
  if cluster >= 0 && cluster < P.cluster_count platform && alloc >= 1 then begin
    let limit =
      Reference_cluster.translate ref_cluster platform ~cluster alloc
    in
    if Array.length procs > limit then
      emit
        (Diagnostic.error ~app ~node Rule.Map_packing
           "holds %d processors, allocation translates to %d"
           (Array.length procs) limit)
  end

let check_one ~emit ?alloc ~release ~is_pinned ~tags platform ref_cluster
    ~app (s : Schedule.t) =
  let ptg = s.Schedule.ptg in
  let dag = ptg.Ptg.dag in
  let n = Dag.node_count dag in
  if Array.length s.Schedule.placements <> n then
    emit
      (Diagnostic.error ~app Rule.Map_structure
         "%d placements for %d DAG nodes"
         (Array.length s.Schedule.placements)
         n)
  else begin
    let alloc =
      match alloc with
      | Some a when Array.length a = n -> Some a
      | Some _ | None -> None
    in
    Array.iteri
      (fun v (pl : Schedule.placement) ->
        (* MAP001: placements are indexed by DAG node. *)
        let pl =
          if pl.Schedule.node = v then pl
          else begin
            emit
              (Diagnostic.error ~app ~node:v Rule.Map_structure
                 "placement at index %d is labeled node %d" v pl.Schedule.node);
            { pl with Schedule.node = v }
          end
        in
        let virt = Ptg.is_virtual ptg v in
        check_placement ~emit ~platform ~tags ~app ~virt ~release pl;
        (* MAP006: pinned placements may carry an allocation from an
           earlier β generation, so they are exempt. *)
        match alloc with
        | Some alloc when not (virt || is_pinned v) ->
          check_packing ~emit platform ref_cluster ~app ~alloc:alloc.(v) pl
        | Some _ | None -> ())
      s.Schedule.placements;
    (* MAP001: the makespan is the exit finish time. *)
    let exit_finish = s.Schedule.placements.(Ptg.exit ptg).Schedule.finish in
    if not (approx_eq s.Schedule.makespan exit_finish) then
      emit
        (Diagnostic.error ~app Rule.Map_structure
           "makespan %g differs from the exit finish %g" s.Schedule.makespan
           exit_finish);
    (* MAP005: starts honour predecessor finishes plus redistribution. *)
    for v = 0 to n - 1 do
      let pv = s.Schedule.placements.(v) in
      Array.iter
        (fun (u, e) ->
          let pu = s.Schedule.placements.(u) in
          let cost =
            if Ptg.is_virtual ptg v || Ptg.is_virtual ptg u then 0.
            else
              Redistribution.estimate platform ~src_cluster:pu.Schedule.cluster
                ~src_procs:pu.Schedule.procs ~dst_cluster:pv.Schedule.cluster
                ~dst_procs:pv.Schedule.procs ~bytes:ptg.Ptg.edge_bytes.(e)
          in
          check_precedence ~emit ~app ~node:v ~start:pv.Schedule.start
            ~pred:u ~pred_finish:pu.Schedule.finish ~cost)
        (Dag.preds dag v)
    done
  end

let check_schedules ~emit ?allocations ?release ?pinned platform schedules =
  let count = List.length schedules in
  let ref_cluster = Reference_cluster.of_platform platform in
  let release =
    match release with Some r -> r | None -> Array.make count 0.
  in
  let tags = tags platform in
  List.iteri
    (fun i s ->
      let alloc = Option.map (fun a -> a.(i)) allocations in
      let is_pinned v =
        match pinned with
        | Some pin -> pin.(i).(v) <> None
        | None -> false
      in
      check_one ~emit ?alloc ~release:release.(i) ~is_pinned ~tags platform
        ref_cluster ~app:i s)
    schedules;
  check_overlap ~emit ~rule:Rule.Map_overlap (fun add ->
      List.iteri
        (fun app s ->
          Array.iter
            (fun { Schedule.node; procs; start; finish; _ } ->
              add ~app ~node ~procs ~start ~finish)
            s.Schedule.placements)
        schedules)
