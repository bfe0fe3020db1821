(* Reusable scratch arrays for the SCRAP(-MAX) allocation loop. One
   arena per engine (or per serving shard, each shard's engine owning
   its own on its own domain): the loop's per-iteration buffers are
   allocated once and grown monotonically to the largest PTG seen, so a
   steady-state reschedule performs no per-call buffer allocation. *)

type t = {
  mutable bl : float array;  (* bottom levels, one slot per DAG node *)
  mutable tl : float array;  (* top levels *)
  mutable gain : float array;  (* per-node gain of one more processor *)
  mutable dirty : Bytes.t;  (* level-repair scratch, all-zero between uses *)
}

let create () =
  {
    bl = [||];
    tl = [||];
    gain = [||];
    dirty = Bytes.empty;
  }

let grow_floats a n = if Array.length a >= n then a else Array.make n 0.

(* The buffers are only ever read on indices the caller re-initialises,
   so growth never needs to preserve contents. *)
let reserve t ~nodes =
  t.bl <- grow_floats t.bl nodes;
  t.tl <- grow_floats t.tl nodes;
  t.gain <- grow_floats t.gain nodes;
  if Bytes.length t.dirty < nodes then t.dirty <- Bytes.make nodes '\000'

let bl t = t.bl
let tl t = t.tl
let gain t = t.gain
let dirty t = t.dirty
