type t = {
  avail : float array;          (* shared with the caller *)
  views : int array array;      (* per group, sorted by (avail, id) *)
  by_id : int array array;      (* per group, sorted by id *)
  buf : int array;              (* scratch, one group long *)
}

(* Stable bottom-up merge sort of [view.(lo) .. view.(n - 1)] by
   availability, ping-ponging between [view] and [tmp] over the same
   positions. The range starts id-sorted and a run's left element wins
   ties, so the result is the (avail, id) order. With no NaN, [<=]
   orders exactly as [Float.compare] does, -0. and +0. included. *)
let sort_view (avail : float array) view tmp lo =
  let n = Array.length view in
  let src = ref view and dst = ref tmp and width = ref 1 in
  while !width < n - lo do
    let s = !src and d = !dst and w = !width in
    let start = ref lo in
    while !start < n do
      let mid = Int.min (!start + w) n and hi = Int.min (!start + (2 * w)) n in
      let i = ref !start and j = ref mid in
      for k = !start to hi - 1 do
        if !i < mid && (!j >= hi || avail.(s.(!i)) <= avail.(s.(!j))) then begin
          d.(k) <- s.(!i);
          incr i
        end
        else begin
          d.(k) <- s.(!j);
          incr j
        end
      done;
      start := hi
    done;
    src := d;
    dst := s;
    width := 2 * w
  done;
  if !src != view then Array.blit !src lo view lo (n - lo)

(* The ids at the group's least availability come first, in id order:
   every other id sorts after them, so only those are merge-sorted.
   After the engine pins its profile, the least availability is the
   current time, so a rebuild pays for the busy processors alone. *)
let reset t =
  let avail = t.avail and rest = t.buf in
  Array.iteri
    (fun g view ->
      let ids = t.by_id.(g) in
      let n = Array.length ids in
      if n > 0 then begin
        let least = ref avail.(ids.(0)) in
        for i = 1 to n - 1 do
          let a = avail.(ids.(i)) in
          if a < !least then least := a
        done;
        let least = !least in
        let m = ref 0 and r = ref 0 in
        for i = 0 to n - 1 do
          let id = ids.(i) in
          if avail.(id) = least then begin
            view.(!m) <- id;
            incr m
          end
          else begin
            rest.(!r) <- id;
            incr r
          end
        done;
        Array.blit rest 0 view !m !r;
        sort_view avail view rest !m
      end)
    t.views

let create ~avail ~groups =
  let n = Array.length avail in
  let seen = Array.make n false in
  Array.iter
    (Array.iter (fun id ->
         if id < 0 || id >= n then
           invalid_arg "Avail_index.create: id out of range";
         if seen.(id) then invalid_arg "Avail_index.create: id in two groups";
         seen.(id) <- true))
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
    Array.fold_left (fun acc ids -> Int.max acc (Array.length ids)) 0 groups
  in
  let t =
    {
      avail;
      views = Array.map Array.copy groups;
      by_id = Array.map by_id groups;
      buf = Array.make (Int.max 1 max_len) 0;
    }
  in
  reset t;
  t

let sorted t g = t.views.(g)

let avail t id = t.avail.(id)

(* The window's ids all take the key [v], no earlier than any of their
   own, so every view position before the window keeps its id. After
   the window come, in view order, the survivors below [v], those at
   exactly [v] and those above it. The committed ids, sorted by id,
   belong after the first run and interleaved by id with the second;
   the third does not move. *)
let commit t g ~lo ~width v =
  let view = t.views.(g) in
  let n = Array.length view in
  if lo < 0 || width < 0 || lo + width > n then
    invalid_arg "Avail_index.commit: window outside the view";
  if not (Float.is_finite v) then
    invalid_arg "Avail_index.commit: non-finite availability";
  if width > 0 then begin
    let avail = t.avail and w = t.buf in
    let hi = lo + width in
    if v < avail.(view.(hi - 1)) then
      invalid_arg "Avail_index.commit: availability below the window's";
    (* The window's ids into [w] in id order, by insertion. *)
    for i = 0 to width - 1 do
      let id = view.(lo + i) in
      let j = ref (i - 1) in
      while !j >= 0 && w.(!j) > id do
        w.(!j + 1) <- w.(!j);
        decr j
      done;
      w.(!j + 1) <- id;
      avail.(id) <- v
    done;
    (* Survivors below [v] shift left over the window. *)
    let dst = ref lo and src = ref hi in
    while !src < n && avail.(view.(!src)) < v do
      view.(!dst) <- view.(!src);
      incr dst;
      incr src
    done;
    (* Merge [w] with the survivors at [v]. [src - dst] counts the
       committed ids still in [w], so the merge never overwrites a
       survivor it has not read, and stops with the tail in place. *)
    let i = ref 0 in
    while !i < width do
      let s = !src in
      if s < n && avail.(view.(s)) = v && view.(s) < w.(!i) then begin
        view.(!dst) <- view.(s);
        src := s + 1
      end
      else begin
        view.(!dst) <- w.(!i);
        incr i
      end;
      incr dst
    done
  end
