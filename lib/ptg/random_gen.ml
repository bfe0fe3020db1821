module Prng = Mcs_prng.Prng
module Task = Mcs_taskmodel.Task

type params = {
  tasks : int;
  width : float;
  regularity : float;
  density : float;
  jump : int;
  class_ : Task.complexity_class;
}

let default =
  {
    tasks = 20;
    width = 0.5;
    regularity = 0.5;
    density = 0.5;
    jump = 1;
    class_ = Task.Class_mixed;
  }

let validate p =
  if p.tasks < 1 then invalid_arg "Random_gen: tasks < 1";
  let check01 label x =
    if not (x > 0. && x <= 1.) then
      invalid_arg (Printf.sprintf "Random_gen: %s outside (0, 1]" label)
  in
  check01 "width" p.width;
  check01 "regularity" p.regularity;
  check01 "density" p.density;
  if p.jump < 1 then invalid_arg "Random_gen: jump < 1"

(* Split [p.tasks] tasks into levels whose sizes hover around n^width,
   modulated by regularity. *)
let draw_level_sizes rng p =
  let n = p.tasks in
  let mean = Float.max 1. (float_of_int n ** p.width) in
  let lo = max 1 (int_of_float (Float.round (mean *. p.regularity))) in
  let hi =
    max lo (int_of_float (Float.round (mean *. (2. -. p.regularity))))
  in
  let rec loop remaining acc =
    if remaining = 0 then List.rev acc
    else begin
      let size = min remaining (Prng.int_in rng ~lo ~hi) in
      loop (remaining - size) (size :: acc)
    end
  in
  loop n []

let generate ?(id = 0) ?name rng p =
  validate p;
  let name =
    match name with
    | Some s -> s
    | None -> Printf.sprintf "random-n%d-w%.1f" p.tasks p.width
  in
  let sizes = Array.of_list (draw_level_sizes rng p) in
  let nlevels = Array.length sizes in
  (* Node ids level by level. *)
  let first = Array.make nlevels 0 in
  let total = ref 0 in
  Array.iteri
    (fun l s ->
      first.(l) <- !total;
      total := !total + s)
    sizes;
  let tasks = Array.init !total (fun _ -> Task.random rng ~class_:p.class_) in
  let edges = ref [] in
  let add_edge u v =
    edges := (u, v, Task.bytes tasks.(u)) :: !edges
  in
  (* Inter-level edges driven by density. *)
  for l = 1 to nlevels - 1 do
    for i = 0 to sizes.(l) - 1 do
      let v = first.(l) + i in
      let parent_count = ref 0 in
      for j = 0 to sizes.(l - 1) - 1 do
        let u = first.(l - 1) + j in
        if Prng.bernoulli rng ~p:p.density then begin
          add_edge u v;
          incr parent_count
        end
      done;
      if !parent_count = 0 then begin
        let u = first.(l - 1) + Prng.int rng sizes.(l - 1) in
        add_edge u v
      end
    done
  done;
  (* Jump edges from level l - jump to level l. *)
  if p.jump > 1 then
    for l = p.jump to nlevels - 1 do
      for i = 0 to sizes.(l) - 1 do
        let v = first.(l) + i in
        if Prng.bernoulli rng ~p:(p.density /. 2.) then begin
          let u = first.(l - p.jump) + Prng.int rng sizes.(l - p.jump) in
          add_edge u v
        end
      done
    done;
  Builder.build ~id ~name ~tasks ~edges:!edges
