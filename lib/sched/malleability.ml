module Floatx = Mcs_util.Floatx

type t = {
  quantum : float;
  redist_cost : float;
  min_width : int;
  shrink_active_above : int;
  grow_active_below : int;
}

let default =
  {
    quantum = 30.;
    redist_cost = 0.05;
    min_width = 1;
    shrink_active_above = 2;
    grow_active_below = 2;
  }

let validate t =
  if not (Float.is_finite t.quantum) || t.quantum <= 0. then
    invalid_arg "Malleability: quantum must be positive and finite";
  if not (Float.is_finite t.redist_cost) || t.redist_cost < 0. then
    invalid_arg "Malleability: redist_cost must be non-negative and finite";
  if t.min_width < 1 then invalid_arg "Malleability: min_width must be >= 1";
  if t.shrink_active_above < 0 then
    invalid_arg "Malleability: shrink_active_above must be >= 0";
  if t.grow_active_below < 0 then
    invalid_arg "Malleability: grow_active_below must be >= 0"

(* The legal resize points of a segment started at [start] are the grid
   start + k·quantum, k ≥ 1. The next one is strictly after [now]: a
   resize executed exactly on a grid point anchors a new segment there,
   whose own grid starts one quantum later. *)
let next_resize_point t ~start ~now =
  let k =
    Float.max 1. (Float.floor ((now -. start +. Floatx.eps) /. t.quantum) +. 1.)
  in
  start +. (k *. t.quantum)

let resize_cost t ~moved = t.redist_cost *. float_of_int moved

let target_width t ~active ~width ~cap =
  let clamp w = max t.min_width (min w cap) in
  if active > t.shrink_active_above then clamp (max 1 (width / 2))
  else if active < t.grow_active_below then clamp (width * 2)
  else width
