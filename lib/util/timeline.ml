(* Per-processor reservations as a pair of parallel sorted arrays
   (starts, finishes). Reservations never overlap, so both arrays are
   increasing and every query is a binary search; the former
   representation was a linear (start, finish) list per processor. *)

type line = {
  mutable starts : float array;
  mutable finishes : float array;
  mutable len : int;
}

type t = {
  nb_procs : int;
  lines : line array;
}

let eps = 1e-9

let create ~procs =
  if procs < 1 then invalid_arg "Timeline.create: procs < 1";
  {
    nb_procs = procs;
    lines =
      Array.init procs (fun _ -> { starts = [||]; finishes = [||]; len = 0 });
  }

let check_proc t proc =
  if proc < 0 || proc >= t.nb_procs then
    invalid_arg (Printf.sprintf "Timeline: processor %d out of range" proc)

(* Index of the first reservation with [finish > at]; [line.len] when
   none. Finishes are strictly increasing, so this is a plain lower
   bound. *)
let first_finishing_after line at =
  let lo = ref 0 and hi = ref line.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if line.finishes.(mid) > at then hi := mid else lo := mid + 1
  done;
  !lo

let ensure_capacity line =
  let cap = Array.length line.starts in
  if line.len = cap then begin
    let ncap = if cap = 0 then 4 else 2 * cap in
    let ns = Array.make ncap 0. and nf = Array.make ncap 0. in
    Array.blit line.starts 0 ns 0 line.len;
    Array.blit line.finishes 0 nf 0 line.len;
    line.starts <- ns;
    line.finishes <- nf
  end

let reserve t ~proc ~start ~finish =
  check_proc t proc;
  if Float.is_nan start || Float.is_nan finish || finish < start then
    invalid_arg "Timeline.reserve: ill-formed interval";
  if finish -. start <= eps then ()
  else begin
    let line = t.lines.(proc) in
    let i = first_finishing_after line (start +. eps) in
    if i < line.len && line.starts.(i) < finish -. eps then
      invalid_arg
        (Printf.sprintf
           "Timeline.reserve: [%g, %g) overlaps [%g, %g) on processor %d"
           start finish line.starts.(i) line.finishes.(i) proc);
    ensure_capacity line;
    Array.blit line.starts i line.starts (i + 1) (line.len - i);
    Array.blit line.finishes i line.finishes (i + 1) (line.len - i);
    line.starts.(i) <- start;
    line.finishes.(i) <- finish;
    line.len <- line.len + 1
  end

let is_free t ~proc ~start ~finish =
  check_proc t proc;
  if finish -. start <= eps then true
  else begin
    let line = t.lines.(proc) in
    let i = first_finishing_after line (start +. eps) in
    i = line.len || line.starts.(i) >= finish -. eps
  end

let free_at t ~proc ~at ~duration =
  is_free t ~proc ~start:at ~finish:(at +. duration)

let next_candidates ?procs_subset t ~after =
  let ends = ref [ after ] in
  let add_line line =
    let i = first_finishing_after line (after +. eps) in
    for j = i to line.len - 1 do
      ends := line.finishes.(j) :: !ends
    done
  in
  (match procs_subset with
  | None -> Array.iter add_line t.lines
  | Some subset ->
    Array.iter
      (fun p ->
        check_proc t p;
        add_line t.lines.(p))
      subset);
  List.sort_uniq Float.compare !ends

(* End of the last reservation on [proc] that finishes at or before [at]
   (0 when idle since the origin) — the best-fit key. *)
let previous_end t ~proc ~at =
  let line = t.lines.(proc) in
  let i = first_finishing_after line (at +. eps) in
  if i = 0 then 0. else Float.max 0. line.finishes.(i - 1)

let find_slot ?procs_subset t ~count ~duration ~after =
  let candidates_procs =
    match procs_subset with
    | Some a -> a
    | None -> Array.init t.nb_procs (fun p -> p)
  in
  if count < 1 || count > Array.length candidates_procs then None
  else begin
    (* The earliest feasible start only depends on the considered
       processors, so candidate times come from that subset alone. *)
    let times = next_candidates ~procs_subset:candidates_procs t ~after in
    let rec try_times = function
      | [] -> None
      | start :: rest ->
        let free =
          Array.to_list candidates_procs
          |> List.filter (fun p -> free_at t ~proc:p ~at:start ~duration)
        in
        if List.length free >= count then begin
          (* Best fit: latest previous reservation end first. *)
          let keyed =
            List.map (fun p -> (previous_end t ~proc:p ~at:start, p)) free
          in
          let sorted =
            List.sort
              (fun (e1, p1) (e2, p2) ->
                let c = Float.compare e2 e1 in
                if c <> 0 then c else compare p1 p2)
              keyed
          in
          let chosen =
            List.filteri (fun i _ -> i < count) sorted
            |> List.map snd |> List.sort compare |> Array.of_list
          in
          Some (start, chosen)
        end
        else try_times rest
    in
    try_times times
  end
