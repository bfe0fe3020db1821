module P = Mcs_platform.Platform
module Prng = Mcs_prng.Prng

type granularity = Proc | Cluster

type config = {
  mttf : float;
  mttr : float;
  task_fail_p : float;
  granularity : granularity;
  horizon : float;
}

let default =
  {
    mttf = Float.infinity;
    mttr = 60.;
    task_fail_p = 0.;
    granularity = Proc;
    horizon = 3600.;
  }

type outage = { procs : int array; down_at : float; up_at : float }
type scenario = { seed : int; config : config; outages : outage list }

let is_empty s = s.outages = [] && s.config.task_fail_p <= 0.

let validate config =
  if config.mttf <= 0. || Float.is_nan config.mttf then
    invalid_arg "Fault.generate: mttf must be positive (infinity = never)";
  if not (Float.is_finite config.mttr) || config.mttr <= 0. then
    invalid_arg "Fault.generate: mttr must be finite and positive";
  if
    Float.is_nan config.task_fail_p
    || config.task_fail_p < 0. || config.task_fail_p > 1.
  then invalid_arg "Fault.generate: task_fail_p outside [0, 1]";
  if not (Float.is_finite config.horizon) || config.horizon <= 0. then
    invalid_arg "Fault.generate: horizon must be finite and positive"

(* One failure unit: alternate exponential up-times and down-times from
   the unit's own stream. Every materialised outage carries its matching
   recovery — possibly past the horizon — so no failure is permanent. *)
let unit_outages rng config procs =
  let out = ref [] in
  let t = ref 0. in
  let continue = ref true in
  while !continue do
    let down_at = !t +. Prng.exponential rng ~mean:config.mttf in
    if not (Float.is_finite down_at) || down_at >= config.horizon then
      continue := false
    else begin
      let repair = Float.max 1e-9 (Prng.exponential rng ~mean:config.mttr) in
      let up_at = down_at +. repair in
      out := { procs; down_at; up_at } :: !out;
      t := up_at
    end
  done;
  List.rev !out

let generate ~seed platform config =
  validate config;
  let outages =
    if not (Float.is_finite config.mttf) then []
    else begin
      let parent = Prng.create ~seed in
      let units =
        match config.granularity with
        | Cluster ->
          List.init (P.cluster_count platform) (fun k ->
              let c = P.cluster platform k in
              let base = P.first_proc platform k in
              Array.init c.P.procs (fun i -> base + i))
        | Proc ->
          List.init (P.total_procs platform) (fun p -> [| p |])
      in
      (* One child stream per unit, split in unit order: the number of
         draws one unit makes cannot shift another unit's process. *)
      let all =
        List.concat_map
          (fun procs -> unit_outages (Prng.split parent) config procs)
          units
      in
      List.sort
        (fun a b ->
          let c = Float.compare a.down_at b.down_at in
          if c <> 0 then c else compare a.procs b.procs)
        all
    end
  in
  { seed; config; outages }

(* Murmur-style 64-bit finalizer: full avalanche, so consecutive
   (app, node, attempt) triples land on unrelated streams. *)
let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33))
      0xff51afd7ed558ccdL
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33))
      0xc4ceb9fe1a85ec53L
  in
  Int64.logxor z (Int64.shift_right_logical z 33)

let roll_failure s ~app ~node ~attempt =
  if s.config.task_fail_p <= 0. then false
  else if app < 0 || node < 0 || attempt < 0 then
    invalid_arg "Fault.roll_failure: negative index"
  else begin
    let z = mix64 (Int64.of_int s.seed) in
    let z = mix64 (Int64.logxor z (Int64.of_int (app + 1))) in
    let z = mix64 (Int64.logxor z (Int64.of_int ((node + 1) * 0x9e3779b1))) in
    let z = mix64 (Int64.logxor z (Int64.of_int ((attempt + 1) * 0x85ebca77))) in
    let rng = Prng.create ~seed:(Int64.to_int z) in
    Prng.bernoulli rng ~p:s.config.task_fail_p
  end

let down_intervals s ~procs =
  if procs < 0 then invalid_arg "Fault.down_intervals: negative proc count";
  let acc = Array.make procs [] in
  List.iter
    (fun o ->
      Array.iter
        (fun p ->
          if p >= 0 && p < procs then
            acc.(p) <- (o.down_at, o.up_at) :: acc.(p))
        o.procs)
    s.outages;
  Array.map
    (fun l ->
      let sorted = List.sort compare l in
      (* Defensive merge; per-unit intervals are disjoint by
         construction. *)
      let rec merge = function
        | (a1, b1) :: (a2, b2) :: rest when a2 <= b1 ->
          merge ((a1, Float.max b1 b2) :: rest)
        | iv :: rest -> iv :: merge rest
        | [] -> []
      in
      merge sorted)
    acc
