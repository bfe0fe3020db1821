module Prng = Mcs_prng.Prng
module Task = Mcs_taskmodel.Task

let log2_exact points =
  if points < 2 then invalid_arg "Fft: points must be >= 2";
  let rec loop v acc =
    if v = 1 then acc
    else if v mod 2 <> 0 then invalid_arg "Fft: points must be a power of two"
    else loop (v / 2) (acc + 1)
  in
  loop points 0

let task_count ~points =
  let k = log2_exact points in
  (2 * points) - 1 + (points * k)

let generate ?(id = 0) ?data ~points rng =
  let k = log2_exact points in
  let d =
    match data with
    | Some d ->
      if d <= 0. then invalid_arg "Fft.generate: non-positive data";
      d
    | None -> Prng.uniform rng ~lo:Task.d_min ~hi:Task.d_max
  in
  (* Tree node (l, i): l in [0, k], i in [0, 2^l). Ids assigned level by
     level: tree level l starts at 2^l - 1. Butterfly stage j in [1, k]
     has [points] tasks starting at tree_total + (j-1)·points. *)
  let tree_total = (2 * points) - 1 in
  let tree_id l i = (1 lsl l) - 1 + i in
  let fly_id j i = tree_total + ((j - 1) * points) + i in
  let total = tree_total + (points * k) in
  let tasks = Array.make total Task.zero in
  (* Per-level Amdahl fractions: k+1 tree levels then k butterfly stages. *)
  let tree_alpha =
    Array.init (k + 1) (fun _ -> Prng.uniform rng ~lo:0. ~hi:Task.alpha_max)
  in
  let fly_alpha =
    Array.init k (fun _ -> Prng.uniform rng ~lo:0. ~hi:Task.alpha_max)
  in
  let a = Prng.uniform rng ~lo:Task.a_min ~hi:Task.a_max in
  for l = 0 to k do
    let dl = d /. float_of_int (1 lsl l) in
    for i = 0 to (1 lsl l) - 1 do
      tasks.(tree_id l i) <-
        Task.make ~data:dl ~complexity:(Sort a) ~alpha:tree_alpha.(l)
    done
  done;
  let dfly = d /. float_of_int points in
  for j = 1 to k do
    for i = 0 to points - 1 do
      tasks.(fly_id j i) <-
        Task.make ~data:dfly ~complexity:(Stencil a) ~alpha:fly_alpha.(j - 1)
    done
  done;
  let edges = ref [] in
  let add u v bytes = edges := (u, v, bytes) :: !edges in
  (* Recursive decomposition: each tree task sends half its data to each
     child. *)
  for l = 0 to k - 1 do
    let child_bytes = 8. *. (d /. float_of_int (1 lsl (l + 1))) in
    for i = 0 to (1 lsl l) - 1 do
      add (tree_id l i) (tree_id (l + 1) (2 * i)) child_bytes;
      add (tree_id l i) (tree_id (l + 1) ((2 * i) + 1)) child_bytes
    done
  done;
  (* Leaves feed the first butterfly stage; each butterfly stage j
     combines elements whose index differs in bit j-1. *)
  let fly_bytes = 8. *. dfly in
  for i = 0 to points - 1 do
    add (tree_id k i) (fly_id 1 i) fly_bytes;
    add (tree_id k (i lxor 1)) (fly_id 1 i) fly_bytes
  done;
  for j = 2 to k do
    let bit = 1 lsl (j - 1) in
    for i = 0 to points - 1 do
      add (fly_id (j - 1) i) (fly_id j i) fly_bytes;
      add (fly_id (j - 1) (i lxor bit)) (fly_id j i) fly_bytes
    done
  done;
  Builder.build ~id ~name:(Printf.sprintf "fft-%dpt" points) ~tasks
    ~edges:!edges
