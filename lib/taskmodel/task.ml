type complexity =
  | Stencil of float
  | Sort of float
  | Matmul

type complexity_class = Class_stencil | Class_sort | Class_matmul | Class_mixed

type t = {
  data : float;
  complexity : complexity;
  alpha : float;
}

let d_min = 4. *. 1024. *. 1024.
let d_max = 121. *. 1024. *. 1024.
let a_min = 64. (* 2^6 *)
let a_max = 512. (* 2^9 *)
let alpha_max = 0.25

let zero = { data = 0.; complexity = Matmul; alpha = 0. }
let is_zero t = t.data = 0.

let make ~data ~complexity ~alpha =
  if data < 0. then invalid_arg "Task.make: negative dataset";
  if alpha < 0. || alpha > 1. then invalid_arg "Task.make: alpha outside [0, 1]";
  (match complexity with
  | Stencil a | Sort a ->
    if a <= 0. then invalid_arg "Task.make: non-positive iteration factor"
  | Matmul -> ());
  { data; complexity; alpha }

(* [flops], [seq_time] and [amdahl] are inlined into [time], and
   [amdahl] into [time_of_seq_into], so pricing a width boxes no
   intermediate float. *)
let[@inline] flops t =
  match t.complexity with
  | Stencil a -> a *. t.data
  | Sort a -> if t.data <= 1. then 0. else a *. t.data *. (log t.data /. log 2.)
  | Matmul -> t.data ** 1.5

let bytes t = 8. *. t.data

let[@inline] seq_time t ~gflops =
  if gflops <= 0. then invalid_arg "Task.seq_time: non-positive speed";
  flops t /. (gflops *. 1e9)

(* Amdahl's law: the one expression every execution time here
   evaluates. *)
let[@inline] amdahl t seq procs =
  seq *. (t.alpha +. ((1. -. t.alpha) /. float_of_int procs))

let time t ~gflops ~procs =
  if procs < 1 then invalid_arg "Task.time: needs at least one processor";
  amdahl t (seq_time t ~gflops) procs

let time_of_seq_into t ~procs seq i dst j =
  if procs < 1 then
    invalid_arg "Task.time_of_seq_into: needs at least one processor";
  dst.(j) <- amdahl t seq.(i) procs

let speedup t ~procs =
  if procs < 1 then invalid_arg "Task.speedup: needs at least one processor";
  1. /. (t.alpha +. ((1. -. t.alpha) /. float_of_int procs))

let random rng ~class_ =
  let open Mcs_prng in
  let pick_concrete = function
    | Class_stencil -> Stencil (Prng.uniform rng ~lo:a_min ~hi:a_max)
    | Class_sort -> Sort (Prng.uniform rng ~lo:a_min ~hi:a_max)
    | Class_matmul -> Matmul
    | Class_mixed -> assert false
  in
  let complexity =
    match class_ with
    | Class_mixed ->
      let concrete =
        Prng.choose rng [| Class_stencil; Class_sort; Class_matmul |]
      in
      pick_concrete concrete
    | (Class_stencil | Class_sort | Class_matmul) as c -> pick_concrete c
  in
  let data = Prng.uniform rng ~lo:d_min ~hi:d_max in
  let alpha = Prng.uniform rng ~lo:0. ~hi:alpha_max in
  { data; complexity; alpha }

let pp ppf t =
  let kind =
    match t.complexity with
    | Stencil a -> Printf.sprintf "stencil(a=%.0f)" a
    | Sort a -> Printf.sprintf "sort(a=%.0f)" a
    | Matmul -> "matmul"
  in
  Format.fprintf ppf "%s d=%.2gM alpha=%.3f" kind (t.data /. 1e6) t.alpha
