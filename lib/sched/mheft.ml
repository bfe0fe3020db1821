module Dag = Mcs_dag.Dag
module Ptg = Mcs_ptg.Ptg
module P = Mcs_platform.Platform
module Task = Mcs_taskmodel.Task
module Redistribution = Mcs_taskmodel.Redistribution

type options = {
  max_fraction : float;
  min_efficiency : float;
  max_procs : int option;
}

let default_options =
  { max_fraction = 1.; min_efficiency = 0.; max_procs = None }

let validate_options o =
  if o.max_fraction <= 0. || o.max_fraction > 1. then
    invalid_arg "Mheft: max_fraction outside (0, 1]";
  if o.min_efficiency < 0. || o.min_efficiency > 1. then
    invalid_arg "Mheft: min_efficiency outside [0, 1]";
  match o.max_procs with
  | Some p when p < 1 -> invalid_arg "Mheft: max_procs < 1"
  | Some _ | None -> ()

(* Upward ranks on the mean processor speed, one processor per task —
   the standard HEFT prioritisation adapted to moldable tasks. *)
let ranks platform ptg =
  let mean_speed =
    P.total_power platform /. float_of_int (P.total_procs platform)
  in
  Dag.bottom_levels ptg.Ptg.dag
    ~node_weight:(fun v ->
      let task = ptg.Ptg.tasks.(v) in
      if Task.is_zero task then 0. else Task.seq_time task ~gflops:mean_speed)
    ~edge_weight:(fun e ->
      let bytes = ptg.Ptg.edge_bytes.(e) in
      if bytes <= 0. then 0.
      else P.latency platform +. (bytes /. P.nic_bandwidth platform))

let schedule ?(options = default_options) platform ptg =
  validate_options options;
  let dag = ptg.Ptg.dag in
  let n = Dag.node_count dag in
  let rank = ranks platform ptg in
  let topo_rank =
    let r = Array.make n 0 in
    Array.iteri (fun i v -> r.(v) <- i) (Dag.topological_order dag);
    r
  in
  let order = Array.init n (fun v -> v) in
  Array.sort
    (fun a b ->
      if rank.(a) > rank.(b) then -1
      else if rank.(a) < rank.(b) then 1
      else compare topo_rank.(a) topo_rank.(b))
    order;
  let proc_avail = Array.make (P.total_procs platform) 0. in
  let placements =
    Array.init n (fun v ->
        { Schedule.node = v; cluster = 0; procs = [||]; start = 0.; finish = 0. })
  in
  let place v =
    let task = ptg.Ptg.tasks.(v) in
    let preds =
      Array.map
        (fun (u, e) -> (placements.(u), ptg.Ptg.edge_bytes.(e)))
        (Dag.preds dag v)
    in
    if Task.is_zero task then begin
      let start =
        Array.fold_left
          (fun acc (pu, _) -> Float.max acc pu.Schedule.finish)
          0. preds
      in
      placements.(v) <-
        { Schedule.node = v; cluster = 0; procs = [||]; start; finish = start }
    end
    else begin
      let best = ref None in
      for k = 0 to P.cluster_count platform - 1 do
        let c = P.cluster platform k in
        let base = P.first_proc platform k in
        let procs_sorted = Array.init c.P.procs (fun i -> base + i) in
        Array.sort
          (fun p q ->
            let cmp = Float.compare proc_avail.(p) proc_avail.(q) in
            if cmp <> 0 then cmp else compare p q)
          procs_sorted;
        let cap =
          let by_fraction =
            max 1
              (int_of_float
                 (Float.ceil (options.max_fraction *. float_of_int c.P.procs)))
          in
          let by_abs =
            match options.max_procs with
            | Some m -> min m c.P.procs
            | None -> c.P.procs
          in
          min by_fraction by_abs
        in
        for p = 1 to cap do
          let efficient =
            options.min_efficiency <= 0.
            || Task.speedup task ~procs:p /. float_of_int p
               >= options.min_efficiency
          in
          if efficient then begin
            let start0 =
              Array.fold_left
                (fun acc (pu, bytes) ->
                  let cost =
                    Redistribution.transfer_time platform
                      ~src_cluster:pu.Schedule.cluster ~dst_cluster:k
                      ~src_procs:(max 1 (Array.length pu.Schedule.procs))
                      ~dst_procs:p ~bytes
                  in
                  Float.max acc (pu.Schedule.finish +. cost))
                proc_avail.(procs_sorted.(p - 1))
                preds
            in
            (* Best fit among processors available by start0. *)
            let fits = ref p in
            while
              !fits < Array.length procs_sorted
              && proc_avail.(procs_sorted.(!fits))
                 <= start0 +. Mcs_util.Floatx.eps
            do
              incr fits
            done;
            let chosen = Array.sub procs_sorted (!fits - p) p in
            let data_ready =
              Array.fold_left
                (fun acc (pu, bytes) ->
                  let cost =
                    Redistribution.estimate platform
                      ~src_cluster:pu.Schedule.cluster
                      ~src_procs:pu.Schedule.procs ~dst_cluster:k
                      ~dst_procs:chosen ~bytes
                  in
                  Float.max acc (pu.Schedule.finish +. cost))
                0. preds
            in
            let avail =
              Array.fold_left
                (fun acc q -> Float.max acc proc_avail.(q))
                0. chosen
            in
            let start = Float.max data_ready avail in
            let finish = start +. Task.time task ~gflops:c.P.gflops ~procs:p in
            let better =
              match !best with
              | None -> true
              | Some (_, _, bf, bs) ->
                finish < bf -. Mcs_util.Floatx.eps
                || (Float.abs (finish -. bf) <= Mcs_util.Floatx.eps
                   && start < bs -. Mcs_util.Floatx.eps)
            in
            if better then best := Some (k, chosen, finish, start)
          end
        done
      done;
      match !best with
      | None -> invalid_arg "Mheft.schedule: no feasible allocation"
      | Some (k, chosen, finish, start) ->
        Array.iter (fun q -> proc_avail.(q) <- finish) chosen;
        placements.(v) <-
          { Schedule.node = v; cluster = k; procs = chosen; start; finish }
    end
  in
  Array.iter place order;
  Schedule.make ~ptg ~placements

let schedule_heft platform ptg =
  schedule ~options:{ default_options with max_procs = Some 1 } platform ptg
