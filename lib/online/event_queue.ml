module Heap = Mcs_util.Heap

type kind =
  | Arrival of int
  | Task_finish of { app : int; node : int }
  | Task_failed of { app : int; node : int }
  | Departure of int
  | Proc_down of int array
  | Proc_up of int array
  | Resize of { app : int; node : int }

type event = {
  time : float;
  kind : kind;
}

let kind_rank = function
  | Task_finish _ -> 0
  | Task_failed _ -> 1
  | Departure _ -> 2
  | Arrival _ -> 3
  | Proc_down _ -> 4
  | Proc_up _ -> 5
  | Resize _ -> 6

(* Content key breaking ties between equal-time events of the same
   kind: the insertion sequence alone would make the pop order depend
   on push order, which stops being canonical once fault events are
   interleaved with announcements. App index (then node) is the
   deterministic tiebreak; processor events use their first (lowest)
   processor id. The sequence number remains as the final resort. The
   key is two ints, so the heap stores it unboxed. *)
let key_major = function
  | Arrival a | Departure a -> a
  | Task_finish { app; _ } | Task_failed { app; _ } | Resize { app; _ } -> app
  | Proc_down ps | Proc_up ps -> if Array.length ps = 0 then -1 else ps.(0)

let key_minor = function
  | Arrival _ | Departure _ -> -1
  | Task_finish { node; _ } | Task_failed { node; _ } | Resize { node; _ } ->
    node
  | Proc_down _ | Proc_up _ -> -2

(* A slot of either heap is keyed by (time, kind rank, content key,
   insertion sequence) and holds the kind the caller pushed: the event
   record is built only when it is peeked or popped. Sequence numbers
   are unique, so the order is total. *)
let dummy = Departure (-1)

(* [fixed] holds the events no reschedule revokes; [current] holds the
   announcements of the live schedule generation only. *)
type t = {
  fixed : kind Heap.t;
  current : kind Heap.t;
  mutable next_seq : int;
}

let create () =
  { fixed = Heap.create ~dummy; current = Heap.create ~dummy; next_seq = 0 }

let push t ~time kind =
  if not (Float.is_finite time) || time < 0. then
    invalid_arg "Event_queue.push: ill-formed time";
  let heap =
    match kind with
    | Arrival _ | Proc_down _ | Proc_up _ -> t.fixed
    | Task_finish _ | Task_failed _ | Departure _ | Resize _ -> t.current
  in
  Heap.push heap time (kind_rank kind) (key_major kind) (key_minor kind)
    t.next_seq kind;
  t.next_seq <- t.next_seq + 1

(* The buffers stay for the next generation's announcements. *)
let next_generation t = Heap.clear t.current

(* The heap whose minimum is the overall minimum. The order is total,
   so always taking the smaller minimum pops exactly the order one
   merged heap would. *)
let front t =
  if Heap.is_empty t.current then t.fixed
  else if Heap.is_empty t.fixed || Heap.min_before t.current t.fixed then
    t.current
  else t.fixed

let peek t =
  let h = front t in
  if Heap.is_empty h then None
  else Some { time = Heap.min_key h; kind = Heap.min_value h }

(* A pop that empties a heap frees its buffers: an engine whose queue
   has drained keeps none, and a warm one regrows them on its next
   reschedule. *)
let pop t =
  let h = front t in
  if Heap.is_empty h then None
  else begin
    let ev = { time = Heap.min_key h; kind = Heap.min_value h } in
    Heap.drop_min h;
    if Heap.is_empty h then Heap.release h;
    Some ev
  end

let is_empty t = Heap.is_empty t.fixed && Heap.is_empty t.current
let length t = Heap.length t.fixed + Heap.length t.current
let pushed t = t.next_seq
