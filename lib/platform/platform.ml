type cluster = {
  cluster_name : string;
  procs : int;
  gflops : float;
  switch : int;
}

type t = {
  name : string;
  clusters : cluster array;
  switch_count : int;
  nic_bandwidth : float;
  link_bandwidth : float;
  backbone_bandwidth : float;
  latency : float;
  first_proc : int array;  (* cluster -> global id of its first processor *)
  total_procs : int;
}

let positive x = Float.is_finite x && x > 0.

let make ~name ?(nic_bandwidth = 1.25e8) ?(link_bandwidth = 1.25e9)
    ?(backbone_bandwidth = 1.25e9) ?(latency = 1e-4) cluster_list =
  if cluster_list = [] then invalid_arg "Platform.make: no clusters";
  List.iter
    (fun c ->
      if c.procs <= 0 then invalid_arg "Platform.make: cluster with no processors";
      if not (positive c.gflops) then
        invalid_arg "Platform.make: speed not finite and positive";
      if c.switch < 0 then invalid_arg "Platform.make: negative switch id")
    cluster_list;
  if
    not
      (positive nic_bandwidth && positive link_bandwidth
     && positive backbone_bandwidth)
  then invalid_arg "Platform.make: bandwidth not finite and positive";
  if not (Float.is_finite latency && latency >= 0.) then
    invalid_arg "Platform.make: latency not finite and non-negative";
  let clusters = Array.of_list cluster_list in
  let nc = Array.length clusters in
  let first_proc = Array.make nc 0 in
  let total = ref 0 in
  Array.iteri
    (fun k c ->
      first_proc.(k) <- !total;
      total := !total + c.procs)
    clusters;
  let switch_count =
    1 + Array.fold_left (fun acc c -> max acc c.switch) 0 clusters
  in
  {
    name;
    clusters;
    switch_count;
    nic_bandwidth;
    link_bandwidth;
    backbone_bandwidth;
    latency;
    first_proc;
    total_procs = !total;
  }

let name t = t.name
let clusters t = Array.copy t.clusters
let cluster_count t = Array.length t.clusters
let cluster t k = t.clusters.(k)
let switch_count t = t.switch_count
let total_procs t = t.total_procs

let cluster_power t k =
  let c = t.clusters.(k) in
  float_of_int c.procs *. c.gflops

let total_power t =
  let acc = ref 0. in
  for k = 0 to cluster_count t - 1 do
    acc := !acc +. cluster_power t k
  done;
  !acc

let check_up t up =
  if Array.length up <> t.total_procs then
    invalid_arg
      (Printf.sprintf "Platform: up mask has %d entries for %d processors"
         (Array.length up) t.total_procs)

let up_counts t ~up =
  check_up t up;
  let counts = Array.make (Array.length t.clusters) 0 in
  Array.iteri
    (fun k c ->
      let base = t.first_proc.(k) in
      for p = base to base + c.procs - 1 do
        if up.(p) then counts.(k) <- counts.(k) + 1
      done)
    t.clusters;
  counts

let up_power t ~up =
  check_up t up;
  let acc = ref 0. in
  Array.iteri
    (fun k c ->
      let base = t.first_proc.(k) in
      for p = base to base + c.procs - 1 do
        if up.(p) then acc := !acc +. c.gflops
      done)
    t.clusters;
  !acc

let min_speed t =
  Array.fold_left (fun acc c -> Float.min acc c.gflops) Float.infinity t.clusters

let max_speed t =
  Array.fold_left (fun acc c -> Float.max acc c.gflops) 0. t.clusters

let heterogeneity t = (max_speed t /. min_speed t) -. 1.

let nic_bandwidth t = t.nic_bandwidth
let link_bandwidth t = t.link_bandwidth
let backbone_bandwidth t = t.backbone_bandwidth
let latency t = t.latency

let fabric_bandwidth t k =
  let c = t.clusters.(k) in
  Float.max t.link_bandwidth
    (t.nic_bandwidth *. float_of_int c.procs /. 2.)
let first_proc t k = t.first_proc.(k)

let cluster_of_proc t p =
  if p < 0 || p >= t.total_procs then
    invalid_arg (Printf.sprintf "Platform.cluster_of_proc: %d" p);
  (* Binary search over first_proc. *)
  let lo = ref 0 and hi = ref (Array.length t.clusters - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if t.first_proc.(mid) <= p then lo := mid else hi := mid - 1
  done;
  !lo

let proc_speed t p = t.clusters.(cluster_of_proc t p).gflops

let same_switch t k1 k2 = t.clusters.(k1).switch = t.clusters.(k2).switch

let pp ppf t =
  Format.fprintf ppf "%s: %d clusters, %d procs, %.1f GFlop/s, het. %.1f%%"
    t.name (cluster_count t) t.total_procs (total_power t)
    (100. *. heterogeneity t)

let describe t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "Site %s (%d processors, heterogeneity %.1f%%, %d switch%s)\n"
       t.name t.total_procs
       (100. *. heterogeneity t)
       t.switch_count
       (if t.switch_count > 1 then "es" else ""));
  Array.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "  %-10s %4d procs  %.3f GFlop/s  switch %d\n"
           c.cluster_name c.procs c.gflops c.switch))
    t.clusters;
  Buffer.contents buf
