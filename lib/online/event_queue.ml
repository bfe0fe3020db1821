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
   insertion sequence), and sequence numbers are unique, so the order
   is total. The slot holds no value: every kind but the processor
   events is rebuilt from its rank and content key, and a processor
   event's array waits in [procs] under its sequence number until it is
   popped. The event record is built only when it is peeked or
   popped. *)

(* [fixed] holds the events no reschedule revokes; [current] holds the
   announcements of the live schedule generation only. [procs] exists
   while a processor event is queued, so a fault-free queue keeps no
   table. *)
type t = {
  fixed : Heap.t;
  current : Heap.t;
  mutable procs : (int, int array) Hashtbl.t option;
  mutable next_seq : int;
}

let create () =
  { fixed = Heap.create (); current = Heap.create (); procs = None; next_seq = 0 }

let procs t =
  match t.procs with
  | Some table -> table
  | None ->
    let table = Hashtbl.create 16 in
    t.procs <- Some table;
    table

let push t ~time kind =
  if not (Float.is_finite time) || time < 0. then
    invalid_arg "Event_queue.push: ill-formed time";
  let seq = t.next_seq in
  let heap =
    match kind with
    | Arrival _ -> t.fixed
    | Proc_down ps | Proc_up ps ->
      Hashtbl.replace (procs t) seq ps;
      t.fixed
    | Task_finish _ | Task_failed _ | Departure _ | Resize _ -> t.current
  in
  Heap.push heap time (kind_rank kind) (key_major kind) (key_minor kind) seq;
  t.next_seq <- seq + 1

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

(* The kind of [h]'s minimum, the inverse of [kind_rank], [key_major]
   and [key_minor] on its ties. *)
let min_kind t h =
  let major = Heap.min_int h 1 and minor = Heap.min_int h 2 in
  match Heap.min_int h 0 with
  | 0 -> Task_finish { app = major; node = minor }
  | 1 -> Task_failed { app = major; node = minor }
  | 2 -> Departure major
  | 3 -> Arrival major
  | 4 -> Proc_down (Hashtbl.find (procs t) (Heap.min_int h 3))
  | 5 -> Proc_up (Hashtbl.find (procs t) (Heap.min_int h 3))
  | _ -> Resize { app = major; node = minor }

let peek t =
  let h = front t in
  if Heap.is_empty h then None
  else Some { time = Heap.min_key h; kind = min_kind t h }

(* A pop that empties a heap frees its buffers, and the fixed side
   its table too: an engine whose queue has drained keeps none, and a
   warm one regrows them on its next reschedule. *)
let pop t =
  let h = front t in
  if Heap.is_empty h then None
  else begin
    let ev = { time = Heap.min_key h; kind = min_kind t h } in
    (match ev.kind with
    | Proc_down _ | Proc_up _ -> Hashtbl.remove (procs t) (Heap.min_int h 3)
    | Arrival _ | Task_finish _ | Task_failed _ | Departure _ | Resize _ -> ());
    Heap.drop_min h;
    if Heap.is_empty h then begin
      Heap.release h;
      if h == t.fixed then t.procs <- None
    end;
    Some ev
  end

let is_empty t = Heap.is_empty t.fixed && Heap.is_empty t.current
let length t = Heap.length t.fixed + Heap.length t.current
let pushed t = t.next_seq
