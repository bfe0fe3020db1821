module Dag = Mcs_dag.Dag
module Ptg = Mcs_ptg.Ptg
module P = Mcs_platform.Platform

type placement = {
  node : int;
  cluster : int;
  procs : int array;
  start : float;
  finish : float;
}

type t = {
  ptg : Ptg.t;
  placements : placement array;
  makespan : float;
}

let make ~ptg ~placements =
  let n = Dag.node_count ptg.Ptg.dag in
  if Array.length placements <> n then
    invalid_arg "Schedule.make: placement count differs from node count";
  { ptg; placements; makespan = placements.(Ptg.exit ptg).finish }

let placement t v = t.placements.(v)

let cluster_busy_time ~platform schedules =
  let busy = Array.make (P.cluster_count platform) 0. in
  List.iter
    (fun sched ->
      Array.iter
        (fun pl ->
          Array.iter
            (fun p ->
              let k = P.cluster_of_proc platform p in
              busy.(k) <- busy.(k) +. (pl.finish -. pl.start))
            pl.procs)
        sched.placements)
    schedules;
  busy

let parallel_efficiency ~platform t =
  let capacity = ref 0. in
  Array.iter
    (fun pl ->
      let speeds =
        Array.fold_left (fun s p -> s +. P.proc_speed platform p) 0. pl.procs
      in
      capacity := !capacity +. ((pl.finish -. pl.start) *. speeds *. 1e9))
    t.placements;
  if !capacity <= 0. then 0. else Ptg.work t.ptg /. !capacity

let used_power_avg t ~platform =
  if t.makespan <= 0. then 0.
  else begin
    let acc = ref 0. in
    Array.iter
      (fun pl ->
        let power =
          Array.fold_left
            (fun s p -> s +. P.proc_speed platform p)
            0. pl.procs
        in
        acc := !acc +. ((pl.finish -. pl.start) *. power))
      t.placements;
    !acc /. t.makespan
  end

let gantt ~platform schedules =
  let width = 78 in
  let horizon =
    List.fold_left (fun acc s -> Float.max acc s.makespan) 0. schedules
  in
  if horizon <= 0. then "(empty schedule)\n"
  else begin
    let buf = Buffer.create 1024 in
    let scale = float_of_int width /. horizon in
    let letter si = Char.chr (Char.code 'A' + (si mod 26)) in
    for k = 0 to P.cluster_count platform - 1 do
      let c = P.cluster platform k in
      Buffer.add_string buf
        (Printf.sprintf "%-10s |" c.P.cluster_name);
      (* One row per cluster: each column shows which application uses
         the most processor-seconds of that cluster in that time slice. *)
      let usage = Array.make width (-1) in
      let weight = Array.make width 0. in
      List.iteri
        (fun si sched ->
          Array.iter
            (fun pl ->
              let nb_here =
                Array.fold_left
                  (fun acc p ->
                    if P.cluster_of_proc platform p = k then acc + 1 else acc)
                  0 pl.procs
              in
              if nb_here > 0 then begin
                let c0 = int_of_float (pl.start *. scale) in
                let c1 =
                  min (width - 1) (int_of_float (pl.finish *. scale))
                in
                for col = max 0 c0 to c1 do
                  let w = float_of_int nb_here in
                  if w > weight.(col) then begin
                    weight.(col) <- w;
                    usage.(col) <- si
                  end
                done
              end)
            sched.placements)
        schedules;
      Array.iter
        (fun si ->
          Buffer.add_char buf (if si < 0 then ' ' else letter si))
        usage;
      Buffer.add_string buf "|\n"
    done;
    Buffer.add_string buf
      (Printf.sprintf "horizon: %.2f s; apps: %s\n" horizon
         (String.concat ", "
            (List.mapi
               (fun si s ->
                 Printf.sprintf "%c=%s#%d" (letter si) s.ptg.Ptg.name
                   s.ptg.Ptg.id)
               schedules)));
    Buffer.contents buf
  end
