type t = {
  avail : float array;          (* shared with the caller *)
  group_of : int array;         (* id -> group, -1 when unindexed *)
  views : int array array;      (* per group, sorted by (avail, id) *)
  by_id : int array array;      (* per group, sorted by id *)
  mark : bool array;            (* scratch: membership of the update set *)
  repaired : bool array;        (* scratch: groups already repaired *)
  buf : int array;              (* scratch: one group's survivors *)
  members : int array;          (* scratch: one group's marked ids *)
}

let key_le avail a b =
  let c = Float.compare avail.(a) avail.(b) in
  if c <> 0 then c < 0 else a <= b

(* Stable bottom-up merge sort of [view] by availability, ping-ponging
   between [view] and [tmp]. [view] starts id-sorted and a run's left
   element wins ties, so the result is the (avail, id) order. With no
   NaN, [<=] orders exactly as [Float.compare] does, -0. and +0.
   included. *)
let sort_view (avail : float array) view tmp =
  let n = Array.length view in
  let src = ref view and dst = ref tmp and width = ref 1 in
  while !width < n do
    let s = !src and d = !dst and w = !width in
    let lo = ref 0 in
    while !lo < n do
      let mid = min (!lo + w) n and hi = min (!lo + (2 * w)) n in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !i < mid && (!j >= hi || avail.(s.(!i)) <= avail.(s.(!j))) then begin
          d.(k) <- s.(!i);
          incr i
        end
        else begin
          d.(k) <- s.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * w
  done;
  if !src != view then Array.blit !src 0 view 0 n

let reset t =
  Array.iteri
    (fun g view ->
      Array.blit t.by_id.(g) 0 view 0 (Array.length view);
      sort_view t.avail view t.buf)
    t.views

let create ~avail ~groups =
  let n = Array.length avail in
  let group_of = Array.make n (-1) in
  Array.iteri
    (fun g ids ->
      Array.iter
        (fun id ->
          if id < 0 || id >= n then
            invalid_arg "Avail_index.create: id out of range";
          if group_of.(id) >= 0 then
            invalid_arg "Avail_index.create: id in two groups";
          group_of.(id) <- g)
        ids)
    groups;
  (* Callers usually pass id-sorted groups (the mapper does), so the
     sort is mostly skipped. *)
  let by_id ids =
    let v = Array.copy ids in
    let sorted = ref true in
    for i = 1 to Array.length v - 1 do
      if v.(i - 1) > v.(i) then sorted := false
    done;
    if not !sorted then Array.sort Int.compare v;
    v
  in
  let max_len =
    Array.fold_left (fun acc ids -> max acc (Array.length ids)) 0 groups
  in
  let t =
    {
      avail;
      group_of;
      views = Array.map Array.copy groups;
      by_id = Array.map by_id groups;
      mark = Array.make n false;
      repaired = Array.make (Array.length groups) false;
      buf = Array.make (max 1 max_len) 0;
      members = Array.make (max 1 max_len) 0;
    }
  in
  reset t;
  t

let group_count t = Array.length t.views

let sorted t g = t.views.(g)

let avail t id = t.avail.(id)

(* Repair one group's view after its marked ids changed key, all to
   the same just-written availability: collect them in id order (hence
   also in (avail, id) order) from the id-sorted copy, compact the
   survivors, then merge the two sorted runs back in place. Collecting
   through the marks also drops duplicated ids. *)
let repair t g =
  let by_id = t.by_id.(g) in
  let m = ref 0 in
  for k = 0 to Array.length by_id - 1 do
    let id = by_id.(k) in
    if t.mark.(id) then begin
      t.members.(!m) <- id;
      incr m
    end
  done;
  let m = !m in
  let view = t.views.(g) in
  let n = Array.length view in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    let id = view.(i) in
    if not t.mark.(id) then begin
      t.buf.(!kept) <- id;
      incr kept
    end
  done;
  let kept = !kept in
  let i = ref 0 and j = ref 0 in
  for w = 0 to n - 1 do
    if !i < kept && (!j >= m || key_le t.avail t.buf.(!i) t.members.(!j))
    then begin
      view.(w) <- t.buf.(!i);
      incr i
    end
    else begin
      view.(w) <- t.members.(!j);
      incr j
    end
  done

let update t ids v =
  let n = Array.length ids in
  if n > 0 then begin
    if not (Float.is_finite v) then
      invalid_arg "Avail_index.update: non-finite availability";
    for k = 0 to n - 1 do
      let id = ids.(k) in
      if id < 0 || id >= Array.length t.group_of || t.group_of.(id) < 0 then
        invalid_arg "Avail_index.update: id not indexed"
    done;
    for k = 0 to n - 1 do
      let id = ids.(k) in
      t.avail.(id) <- v;
      t.mark.(id) <- true
    done;
    (* Each affected group is repaired once, whatever the order of [ids]
       and however many groups they span. *)
    for k = 0 to n - 1 do
      let g = t.group_of.(ids.(k)) in
      if not t.repaired.(g) then begin
        t.repaired.(g) <- true;
        repair t g
      end
    done;
    for k = 0 to n - 1 do
      let id = ids.(k) in
      t.mark.(id) <- false;
      t.repaired.(t.group_of.(id)) <- false
    done
  end

(* Rolling a commit back is the same repair with a key that moves the
   other way; the mark/compact/merge pass never assumed keys only grow. *)
let release = update
