(* Slot [i] is the key [keys.(i)] and the ties [ints.(4i) .. ints.(4i +
   3)]. The buffers hold [capacity + 1] slots: the last one is a
   register that holds the slot being sifted, so that every comparison
   and every move is between two slots and sifting moves a hole instead
   of swapping. Both buffers are unboxed, so no move writes a pointer. *)
type t = {
  mutable keys : float array;
  mutable ints : int array;
  mutable size : int;
}

let create () = { keys = [||]; ints = [||]; size = 0 }
let length t = t.size
let is_empty t = t.size = 0

(* Whether slot [i] of ([ka], [ia]) sorts strictly before slot [j] of
   ([kb], [ib]). Keys that compare neither lower nor higher (equal, or
   a NaN) tie, and the ints decide. *)
let[@inline] lt (ka : float array) (ia : int array) i (kb : float array)
    (ib : int array) j =
  let x = ka.(i) and y = kb.(j) in
  x < y
  || (not (x > y))
     &&
     let oi = 4 * i and oj = 4 * j in
     let p = ia.(oi) and q = ib.(oj) in
     if p <> q then p < q
     else
       let p = ia.(oi + 1) and q = ib.(oj + 1) in
       if p <> q then p < q
       else
         let p = ia.(oi + 2) and q = ib.(oj + 2) in
         if p <> q then p < q else ia.(oi + 3) < ib.(oj + 3)

let[@inline] before t i j = lt t.keys t.ints i t.keys t.ints j

let[@inline] move t src dst =
  t.keys.(dst) <- t.keys.(src);
  let s = 4 * src and d = 4 * dst in
  t.ints.(d) <- t.ints.(s);
  t.ints.(d + 1) <- t.ints.(s + 1);
  t.ints.(d + 2) <- t.ints.(s + 2);
  t.ints.(d + 3) <- t.ints.(s + 3)

let grow t =
  let slots = Array.length t.keys in
  let n = if slots = 0 then 16 else 2 * slots in
  let keys = Array.make n 0. and ints = Array.make (4 * n) 0 in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.ints 0 ints 0 (4 * t.size);
  t.keys <- keys;
  t.ints <- ints

let push t key a b c d =
  if t.size + 1 >= Array.length t.keys then grow t;
  let r = Array.length t.keys - 1 in
  t.keys.(r) <- key;
  let o = 4 * r in
  t.ints.(o) <- a;
  t.ints.(o + 1) <- b;
  t.ints.(o + 2) <- c;
  t.ints.(o + 3) <- d;
  let i = ref t.size in
  t.size <- t.size + 1;
  while !i > 0 && before t r ((!i - 1) / 2) do
    let p = (!i - 1) / 2 in
    move t p !i;
    i := p
  done;
  move t r !i

let empty name = invalid_arg ("Heap." ^ name ^ ": empty heap")

let min_key t =
  if t.size = 0 then empty "min_key";
  t.keys.(0)

let min_int t j =
  if t.size = 0 then empty "min_int";
  if j < 0 || j > 3 then invalid_arg "Heap.min_int: no such int";
  t.ints.(j)

let min_before a b =
  if a.size = 0 || b.size = 0 then empty "min_before";
  lt a.keys a.ints 0 b.keys b.ints 0

let drop_min t =
  if t.size = 0 then empty "drop_min";
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let r = Array.length t.keys - 1 in
    move t n r;
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let c = if l + 1 < n && before t (l + 1) l then l + 1 else l in
        if before t c r then begin
          move t c !i;
          i := c
        end
        else sifting := false
      end
    done;
    move t r !i
  end

let clear t = t.size <- 0

let release t =
  t.keys <- [||];
  t.ints <- [||];
  t.size <- 0
