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

type entry = {
  ev : event;
  seq : int;
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
   key is two ints rather than a pair so that comparing never
   allocates. *)
let key_major = function
  | Arrival a | Departure a -> a
  | Task_finish { app; _ } | Task_failed { app; _ } | Resize { app; _ } -> app
  | Proc_down ps | Proc_up ps -> if Array.length ps = 0 then -1 else ps.(0)

let key_minor = function
  | Arrival _ | Departure _ -> -1
  | Task_finish { node; _ } | Task_failed { node; _ } | Resize { node; _ } ->
    node
  | Proc_down _ | Proc_up _ -> -2

let entry_cmp a b =
  let c = Float.compare a.ev.time b.ev.time in
  if c <> 0 then c
  else
    let c = Int.compare (kind_rank a.ev.kind) (kind_rank b.ev.kind) in
    if c <> 0 then c
    else
      let c = Int.compare (key_major a.ev.kind) (key_major b.ev.kind) in
      if c <> 0 then c
      else
        let c = Int.compare (key_minor a.ev.kind) (key_minor b.ev.kind) in
        if c <> 0 then c else Int.compare a.seq b.seq

(* [fixed] holds the events no reschedule revokes; [current] holds the
   announcements of the live schedule generation only. *)
type t = {
  fixed : entry Mcs_util.Heap.t;
  current : entry Mcs_util.Heap.t;
  mutable next_seq : int;
}

let create () =
  {
    fixed = Mcs_util.Heap.create ~cmp:entry_cmp;
    current = Mcs_util.Heap.create ~cmp:entry_cmp;
    next_seq = 0;
  }

(* Entries are immutable records, so sharing them across the copied
   heaps is safe; preserving [next_seq] keeps the insertion-sequence
   tiebreak — and hence every future pop order — bit-identical between
   the copy and the original. *)
let copy t =
  {
    fixed = Mcs_util.Heap.copy t.fixed;
    current = Mcs_util.Heap.copy t.current;
    next_seq = t.next_seq;
  }

let push t ~time kind =
  if not (Float.is_finite time) || time < 0. then
    invalid_arg "Event_queue.push: ill-formed time";
  let heap =
    match kind with
    | Arrival _ | Proc_down _ | Proc_up _ -> t.fixed
    | Task_finish _ | Task_failed _ | Departure _ | Resize _ -> t.current
  in
  Mcs_util.Heap.push heap { ev = { time; kind }; seq = t.next_seq };
  t.next_seq <- t.next_seq + 1

let next_generation t = Mcs_util.Heap.clear t.current

(* The heap whose top is the overall minimum. [entry_cmp] is a total
   order (sequence numbers are unique), so always taking the smaller
   top pops exactly the order one merged heap would. *)
let front t =
  match (Mcs_util.Heap.peek t.fixed, Mcs_util.Heap.peek t.current) with
  | Some f, Some c when entry_cmp c f < 0 -> t.current
  | None, Some _ -> t.current
  | _, _ -> t.fixed

let pop t = Option.map (fun e -> e.ev) (Mcs_util.Heap.pop (front t))

let peek t = Option.map (fun e -> e.ev) (Mcs_util.Heap.peek (front t))

let is_empty t =
  Mcs_util.Heap.is_empty t.fixed && Mcs_util.Heap.is_empty t.current

let length t = Mcs_util.Heap.length t.fixed + Mcs_util.Heap.length t.current

let pushed t = t.next_seq
