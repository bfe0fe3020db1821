module P = Mcs_platform.Platform
module Task = Mcs_taskmodel.Task

type t = { speed : float; procs : int }

let make ~speed ~procs =
  if speed <= 0. then invalid_arg "Reference_cluster.make: non-positive speed";
  if procs <= 0 then invalid_arg "Reference_cluster.make: non-positive size";
  { speed; procs }

let of_platform platform =
  let speed = P.min_speed platform in
  let procs = int_of_float (Float.floor (P.total_power platform /. speed)) in
  make ~speed ~procs:(Int.max 1 procs)

let degrade t ~power =
  if not (Float.is_finite power) || power <= 0. then
    invalid_arg "Reference_cluster.degrade: non-positive surviving power";
  (* The speed stays the full platform's yardstick so β shares and task
     estimates keep their meaning across outages; only the size — the
     aggregate power β is a share of — shrinks. *)
  { t with procs = Int.max 1 (int_of_float (Float.floor (power /. t.speed))) }

let exec_time t task ~procs =
  if Task.is_zero task then 0. else Task.time task ~gflops:t.speed ~procs

let round_half_up x = int_of_float (Float.floor (x +. 0.5))

let translate t platform ~cluster p =
  if p < 1 then invalid_arg "Reference_cluster.translate: p < 1";
  let c = P.cluster platform cluster in
  let ideal = float_of_int p *. t.speed /. c.P.gflops in
  let r = Int.max 1 (round_half_up ideal) in
  Int.min r c.P.procs

let fits t platform ~cluster p =
  if p < 1 then invalid_arg "Reference_cluster.fits: p < 1";
  let c = P.cluster platform cluster in
  let ideal = float_of_int p *. t.speed /. c.P.gflops in
  Int.max 1 (round_half_up ideal) <= c.P.procs

let max_allocation ?up_counts t platform =
  (* Largest p such that round(p·s_ref/s_k) <= the processors available
     on some cluster k. The translation is monotone in p, so compute the
     per-cluster bound directly: p·s_ref/s_k < available + 0.5. With an
     [up_counts] mask the available count is the surviving processors;
     a fully-down cluster contributes nothing. *)
  (match up_counts with
  | Some u when Array.length u <> P.cluster_count platform ->
    invalid_arg "Reference_cluster.max_allocation: up_counts length mismatch"
  | _ -> ());
  let best = ref 0 in
  for k = 0 to P.cluster_count platform - 1 do
    let c = P.cluster platform k in
    let available =
      match up_counts with None -> c.P.procs | Some u -> Int.min c.P.procs u.(k)
    in
    if available >= 1 then begin
      let bound = (float_of_int available +. 0.5) *. c.P.gflops /. t.speed in
      let cap = int_of_float (Float.ceil bound) - 1 in
      let cap = Int.max 1 cap in
      (* Guard against float rounding at the boundary. *)
      let translated p =
        Int.max 1 (round_half_up (float_of_int p *. t.speed /. c.P.gflops))
      in
      let cap = if translated cap <= available then cap else cap - 1 in
      if cap > !best then best := cap
    end
  done;
  match up_counts with
  | None -> Int.min (Int.max 1 !best) t.procs
  | Some _ -> Int.min !best t.procs
