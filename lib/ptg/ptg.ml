module Dag = Mcs_dag.Dag
module Task = Mcs_taskmodel.Task

type t = {
  id : int;
  name : string;
  dag : Dag.t;
  tasks : Task.t array;
  edge_bytes : float array;
  entry : int;
  exit : int;
  work : float;
  max_width : int;
}

(* The largest number of real tasks on one precedence level. *)
let level_width dag tasks =
  let levels = Dag.depth_levels dag in
  let d = Dag.depth dag in
  if d = 0 then 0
  else begin
    let counts = Array.make d 0 in
    Array.iteri
      (fun v task ->
        if not (Task.is_zero task) then
          counts.(levels.(v)) <- counts.(levels.(v)) + 1)
      tasks;
    Array.fold_left max 0 counts
  end

let create ~id ~name ~dag ~tasks ~edge_bytes =
  let n = Dag.node_count dag in
  if Array.length tasks <> n then
    invalid_arg
      (Printf.sprintf "Ptg.create %s: %d tasks for %d nodes" name
         (Array.length tasks) n);
  if Array.length edge_bytes <> Dag.edge_count dag then
    invalid_arg
      (Printf.sprintf "Ptg.create %s: %d byte entries for %d edges" name
         (Array.length edge_bytes) (Dag.edge_count dag));
  Array.iter
    (fun b -> if b < 0. then invalid_arg "Ptg.create: negative edge volume")
    edge_bytes;
  match (Dag.sources dag, Dag.sinks dag) with
  | [ entry ], [ exit ] ->
    let work = Mcs_util.Floatx.sum (Array.map Task.flops tasks) in
    let max_width = level_width dag tasks in
    { id; name; dag; tasks; edge_bytes; entry; exit; work; max_width }
  | srcs, snks ->
    invalid_arg
      (Printf.sprintf "Ptg.create %s: %d sources and %d sinks (need 1 and 1)"
         name (List.length srcs) (List.length snks))

let node_count t = Dag.node_count t.dag

let is_virtual t v = Task.is_zero t.tasks.(v)

let task_count t =
  let count = ref 0 in
  for v = 0 to node_count t - 1 do
    if not (is_virtual t v) then incr count
  done;
  !count

let entry t = t.entry

let exit t = t.exit

let work t = t.work

let max_width t = t.max_width

let bottom_levels_seq t ~gflops =
  Dag.bottom_levels t.dag
    ~node_weight:(fun v ->
      if is_virtual t v then 0. else Task.seq_time t.tasks.(v) ~gflops)
    ~edge_weight:(fun _ -> 0.)

let critical_path_seq t ~gflops =
  let bl = bottom_levels_seq t ~gflops in
  bl.(entry t)

let pp ppf t =
  Format.fprintf ppf "%s#%d: %d tasks, depth %d, width %d, %.3g Gflop" t.name
    t.id (task_count t) (Dag.depth t.dag) (max_width t) (work t /. 1e9)

let to_dot t =
  Dag.to_dot ~graph_name:(Printf.sprintf "ptg_%d" t.id)
    ~node_label:(fun v ->
      if is_virtual t v then Printf.sprintf "v%d (virtual)" v
      else Format.asprintf "v%d: %a" v Task.pp t.tasks.(v))
    ~edge_label:(fun e -> Printf.sprintf "%.1fMB" (t.edge_bytes.(e) /. 1e6))
    t.dag
