type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable data : 'a array;
  mutable size : int;
}

let create ~cmp = { cmp; data = [||]; size = 0 }
let length t = t.size
let is_empty t = t.size = 0

(* The backing array is copied but the elements are shared — callers
   that store mutable elements must deep-copy them themselves (the
   engine's event queue stores immutable entries, so sharing is safe). *)
let copy t = { cmp = t.cmp; data = Array.copy t.data; size = t.size }

(* The doubled buffer is built from the old one, not with
   [Array.make (2 * cap) x]: above 256 words OCaml 5's [caml_make_vect]
   first empties the minor heap whenever [x] is young (the runtime's
   [force_minor_make_vect] counter), and with several domains running
   every minor collection is a stop-the-world barrier. [Array.append]
   and [Array.fill] only record the young pointers. The new slots are
   then seeded with [x], which is live. *)
let grow t x =
  let cap = Array.length t.data in
  if t.size = cap then
    if cap = 0 then t.data <- Array.make 16 x
    else begin
      let nd = Array.append t.data t.data in
      Array.fill nd cap cap x;
      t.data <- nd
    end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if t.cmp t.data.(i) t.data.(parent) < 0 then begin
      let tmp = t.data.(i) in
      t.data.(i) <- t.data.(parent);
      t.data.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && t.cmp t.data.(l) t.data.(!smallest) < 0 then smallest := l;
  if r < t.size && t.cmp t.data.(r) t.data.(!smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    let tmp = t.data.(i) in
    t.data.(i) <- t.data.(!smallest);
    t.data.(!smallest) <- tmp;
    sift_down t !smallest
  end

let push t x =
  grow t x;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

(* Slots in [size, cap) may still reference elements that left the heap:
   [grow] seeds them with whatever was being pushed, and [pop] parks a
   then-live element there. Dropping the trailing region once occupancy
   falls below a quarter keeps those strays from pinning popped values. *)
let shrink t =
  if t.size = 0 then t.data <- [||]
  else if 4 * t.size <= Array.length t.data then
    t.data <- Array.sub t.data 0 t.size

let pop_exn t =
  if t.size = 0 then invalid_arg "Heap.pop_exn: empty heap";
  let top = t.data.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.data.(0) <- t.data.(t.size);
    (* Overwrite the vacated slot with a still-live element so the
       array does not keep the popped value reachable forever. *)
    t.data.(t.size) <- t.data.(0);
    sift_down t 0
  end;
  shrink t;
  top

let pop t = if t.size = 0 then None else Some (pop_exn t)

let peek t = if t.size = 0 then None else Some t.data.(0)

let clear t =
  t.size <- 0;
  t.data <- [||]

let to_list t =
  let rec loop i acc =
    if i < 0 then acc else loop (i - 1) (t.data.(i) :: acc)
  in
  loop (t.size - 1) []

let of_list ~cmp l =
  let t = create ~cmp in
  List.iter (push t) l;
  t
