type t = {
  n : int;
  edges : (int * int) array;           (* edge id -> (src, dst) *)
  succ : (int * int) array array;      (* node -> (dst, edge id), sorted by dst *)
  pred : (int * int) array array;      (* node -> (src, edge id), sorted by src *)
  topo : int array;                    (* cached topological order *)
  pos : int array;                     (* node -> its index in [topo] *)
  level : int array;                   (* cached precedence levels *)
}

exception Cycle of int list

let node_count t = t.n
let edge_count t = Array.length t.edges
let edge t e = t.edges.(e)
let succs t v = t.succ.(v)
let preds t v = t.pred.(v)
let out_degree t v = Array.length t.succ.(v)
let in_degree t v = Array.length t.pred.(v)

(* Kahn's algorithm with a sorted frontier so the order is deterministic.
   Returns the topological order or raises [Cycle] with one cycle found
   by walking back through still-constrained nodes. *)
let compute_topo n succ pred =
  let indeg = Array.make n 0 in
  for v = 0 to n - 1 do
    indeg.(v) <- Array.length pred.(v)
  done;
  (* The frontier pops the lowest node id first: its key is constant
     and the id is its first tie. *)
  let frontier = Mcs_util.Heap.create ~dummy:() in
  let add v = Mcs_util.Heap.push frontier 0. v 0 0 0 () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then add v
  done;
  let order = Array.make n 0 in
  let filled = ref 0 in
  while not (Mcs_util.Heap.is_empty frontier) do
    let v = Mcs_util.Heap.min_int frontier 0 in
    Mcs_util.Heap.drop_min frontier;
    order.(!filled) <- v;
    incr filled;
    Array.iter
      (fun (w, _e) ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then add w)
      succ.(v)
  done;
  if !filled < n then begin
    (* Find a cycle among the remaining nodes: walk predecessors that are
       still constrained until a node repeats. *)
    let stuck = ref (-1) in
    for v = n - 1 downto 0 do
      if indeg.(v) > 0 then stuck := v
    done;
    let visited = Hashtbl.create 16 in
    let rec walk v path =
      if Hashtbl.mem visited v then begin
        (* The walk is chronological once reversed; the cycle is the
           suffix starting at the first occurrence of [v]. *)
        let chronological = List.rev (v :: path) in
        let rec drop = function
          | w :: rest when w <> v -> drop rest
          | l -> l
        in
        raise (Cycle (drop chronological))
      end;
      Hashtbl.replace visited v ();
      let next =
        Array.fold_left
          (fun acc (u, _e) -> if indeg.(u) > 0 && acc = -1 then u else acc)
          (-1) pred.(v)
      in
      if next = -1 then raise (Cycle (List.rev (v :: path)))
      else walk next (v :: path)
    in
    walk !stuck []
  end;
  order

let compute_levels n topo pred =
  let level = Array.make n 0 in
  Array.iter
    (fun v ->
      Array.iter
        (fun (u, _e) -> if level.(u) + 1 > level.(v) then level.(v) <- level.(u) + 1)
        pred.(v))
    topo;
  level

let of_edges ~n edge_list =
  if n < 0 then invalid_arg "Dag.of_edges: negative node count";
  List.iter
    (fun (s, d) ->
      if s < 0 || s >= n || d < 0 || d >= n then
        invalid_arg
          (Printf.sprintf "Dag.of_edges: edge (%d, %d) out of range [0, %d)" s d n);
      if s = d then raise (Cycle [ s; s ]))
    edge_list;
  (* Deduplicate, then fix edge ids by the sorted (src, dst) order so the
     graph (and its edge ids) are independent of input list order. *)
  let dedup = List.sort_uniq compare edge_list in
  let edges = Array.of_list dedup in
  let succ = Array.make n [] and pred = Array.make n [] in
  Array.iteri
    (fun e (s, d) ->
      succ.(s) <- (d, e) :: succ.(s);
      pred.(d) <- (s, e) :: pred.(d))
    edges;
  let finalize l = Array.of_list (List.sort compare l) in
  let succ = Array.map finalize (Array.map (fun x -> x) succ) in
  let pred = Array.map finalize (Array.map (fun x -> x) pred) in
  let topo = compute_topo n succ pred in
  let pos = Array.make n 0 in
  Array.iteri (fun i v -> pos.(v) <- i) topo;
  let level = compute_levels n topo pred in
  { n; edges; succ; pred; topo; pos; level }

let edge_id t ~src ~dst =
  if src < 0 || src >= t.n then None
  else
    Array.fold_left
      (fun acc (d, e) -> if d = dst then Some e else acc)
      None t.succ.(src)

let is_edge t ~src ~dst = edge_id t ~src ~dst <> None

let sources t =
  let acc = ref [] in
  for v = t.n - 1 downto 0 do
    if in_degree t v = 0 then acc := v :: !acc
  done;
  !acc

let sinks t =
  let acc = ref [] in
  for v = t.n - 1 downto 0 do
    if out_degree t v = 0 then acc := v :: !acc
  done;
  !acc

let topological_order t = Array.copy t.topo
let depth_levels t = Array.copy t.level

let depth t =
  if t.n = 0 then 0 else 1 + Array.fold_left max 0 t.level

let level_members t =
  let d = depth t in
  let counts = Array.make d 0 in
  Array.iter (fun l -> counts.(l) <- counts.(l) + 1) t.level;
  let members = Array.map (fun c -> Array.make c 0) counts in
  let cursor = Array.make d 0 in
  for v = 0 to t.n - 1 do
    let l = t.level.(v) in
    members.(l).(cursor.(l)) <- v;
    cursor.(l) <- cursor.(l) + 1
  done;
  members

let max_width t =
  if t.n = 0 then 0
  else begin
    let d = depth t in
    let counts = Array.make d 0 in
    Array.iter (fun l -> counts.(l) <- counts.(l) + 1) t.level;
    Array.fold_left max 0 counts
  end

let top_levels_into t ~node_weight ~edge_weight tl =
  if Array.length tl < t.n then
    invalid_arg "Dag.top_levels_into: buffer shorter than node count";
  Array.fill tl 0 t.n 0.;
  Array.iter
    (fun v ->
      Array.iter
        (fun (u, e) ->
          let via = tl.(u) +. node_weight u +. edge_weight e in
          if via > tl.(v) then tl.(v) <- via)
        t.pred.(v))
    t.topo

let top_levels t ~node_weight ~edge_weight =
  let tl = Array.make t.n 0. in
  top_levels_into t ~node_weight ~edge_weight tl;
  tl

let bottom_levels_into t ~node_weight ~edge_weight bl =
  if Array.length bl < t.n then
    invalid_arg "Dag.bottom_levels_into: buffer shorter than node count";
  for i = t.n - 1 downto 0 do
    let v = t.topo.(i) in
    let best = ref 0. in
    Array.iter
      (fun (w, e) ->
        let via = edge_weight e +. bl.(w) in
        if via > !best then best := via)
      t.succ.(v);
    bl.(v) <- node_weight v +. !best
  done

let bottom_levels t ~node_weight ~edge_weight =
  let bl = Array.make t.n 0. in
  bottom_levels_into t ~node_weight ~edge_weight bl;
  bl

(* Incremental repair after a single node weight changed. A node's
   level only moves when the changed node's own entry, or a
   successor/predecessor whose level already moved, feeds its max — so
   the repair recomputes exactly the nodes a [dirty] flag reaches,
   walking the cached topological order so every recomputation sees
   finalised inputs. Recomputed values use the same max-fold over the
   same operands as the full pass, and untouched nodes keep values
   computed from identical inputs, so the repaired array is
   bit-identical to a full recomputation. The [dirty] scratch must be
   all-zero on entry and is restored to all-zero (every flagged node is
   visited by the scan, which clears it). *)

let bottom_levels_update t ~node_weight ~edge_weight ~changed ~dirty bl =
  if Bytes.length dirty < t.n then
    invalid_arg "Dag.bottom_levels_update: dirty scratch shorter than nodes";
  let recompute v =
    let best = ref 0. in
    Array.iter
      (fun (w, e) ->
        let via = edge_weight e +. bl.(w) in
        if via > !best then best := via)
      t.succ.(v);
    node_weight v +. !best
  in
  let nv = recompute changed in
  if nv <> bl.(changed) then begin
    bl.(changed) <- nv;
    (* Predecessors all sit strictly before [changed] in topological
       order, so the scan starts just below it; an outstanding-mark
       count lets it stop as soon as the wave dies out, making the
       repair cost proportional to the affected cone's topo span. *)
    let pending = ref 0 in
    let mark u =
      if Bytes.unsafe_get dirty u = '\000' then begin
        Bytes.unsafe_set dirty u '\001';
        incr pending
      end
    in
    Array.iter (fun (u, _) -> mark u) t.pred.(changed);
    let i = ref (t.pos.(changed) - 1) in
    while !pending > 0 do
      let v = t.topo.(!i) in
      if Bytes.unsafe_get dirty v = '\001' then begin
        Bytes.unsafe_set dirty v '\000';
        decr pending;
        let nv = recompute v in
        if nv <> bl.(v) then begin
          bl.(v) <- nv;
          Array.iter (fun (u, _) -> mark u) t.pred.(v)
        end
      end;
      decr i
    done
  end

let top_levels_update t ~node_weight ~edge_weight ~changed ~dirty tl =
  if Bytes.length dirty < t.n then
    invalid_arg "Dag.top_levels_update: dirty scratch shorter than nodes";
  let recompute v =
    let best = ref 0. in
    Array.iter
      (fun (u, e) ->
        let via = tl.(u) +. node_weight u +. edge_weight e in
        if via > !best then best := via)
      t.pred.(v);
    !best
  in
  (* [changed]'s own top level excludes its weight, so repair starts at
     its successors (whose max folds read the changed weight), which
     all sit strictly after it in topological order. *)
  let pending = ref 0 in
  let mark s =
    if Bytes.unsafe_get dirty s = '\000' then begin
      Bytes.unsafe_set dirty s '\001';
      incr pending
    end
  in
  Array.iter (fun (s, _) -> mark s) t.succ.(changed);
  let i = ref (t.pos.(changed) + 1) in
  while !pending > 0 do
    let v = t.topo.(!i) in
    if Bytes.unsafe_get dirty v = '\001' then begin
      Bytes.unsafe_set dirty v '\000';
      decr pending;
      let nv = recompute v in
      if nv <> tl.(v) then begin
        tl.(v) <- nv;
        Array.iter (fun (s, _) -> mark s) t.succ.(v)
      end
    end;
    incr i
  done

let longest_path t ~node_weight ~edge_weight =
  if t.n = 0 then (0., [])
  else begin
    let bl = bottom_levels t ~node_weight ~edge_weight in
    let start = ref 0 in
    for v = 0 to t.n - 1 do
      if bl.(v) > bl.(!start) then start := v
    done;
    (* Follow the successor that realises the bottom level at each hop. *)
    let rec follow v acc =
      let next =
        Array.fold_left
          (fun best (w, e) ->
            let via = edge_weight e +. bl.(w) in
            match best with
            | Some (_, best_via) when best_via >= via -. 1e-12 -> best
            | _ -> Some (w, via))
          None t.succ.(v)
      in
      match next with
      | None -> List.rev (v :: acc)
      | Some (w, _) -> follow w (v :: acc)
    in
    (bl.(!start), follow !start [])
  end

let reachable_from t v =
  let seen = Array.make t.n false in
  let rec visit u =
    if not seen.(u) then begin
      seen.(u) <- true;
      Array.iter (fun (w, _e) -> visit w) t.succ.(u)
    end
  in
  if v >= 0 && v < t.n then visit v;
  seen

let has_path t ~src ~dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then false
  else (reachable_from t src).(dst)

let map_nodes t ~f = Array.init t.n f

(* Reachability matrix as per-node boolean rows, computed in reverse
   topological order: row(v) = {v} ∪ ⋃ row(succ). O(V·E/word) via
   Bytes-backed rows would be possible; plain bool arrays are fine at
   the sizes this library targets. *)
let reachability_rows t =
  let rows = Array.init t.n (fun _ -> [||]) in
  for i = t.n - 1 downto 0 do
    let v = t.topo.(i) in
    let row = Array.make t.n false in
    row.(v) <- true;
    Array.iter
      (fun (w, _e) ->
        let rw = rows.(w) in
        for x = 0 to t.n - 1 do
          if rw.(x) then row.(x) <- true
        done)
      t.succ.(v);
    rows.(v) <- row
  done;
  rows

let transitive_closure t =
  let rows = reachability_rows t in
  let edges = ref [] in
  for u = 0 to t.n - 1 do
    for v = 0 to t.n - 1 do
      if u <> v && rows.(u).(v) then edges := (u, v) :: !edges
    done
  done;
  of_edges ~n:t.n !edges

let is_transitively_redundant t e =
  let u, v = t.edges.(e) in
  (* Redundant iff some direct successor of [u] other than [v] still
     reaches [v]. *)
  Array.exists
    (fun (w, e') -> e' <> e && w <> v && (reachable_from t w).(v))
    t.succ.(u)

let transitive_reduction t =
  let rows = reachability_rows t in
  let keep = ref [] in
  Array.iteri
    (fun e (u, v) ->
      let redundant =
        Array.exists
          (fun (w, e') -> e' <> e && w <> v && rows.(w).(v))
          t.succ.(u)
      in
      if not redundant then keep := (u, v) :: !keep)
    t.edges;
  of_edges ~n:t.n !keep

let to_dot ?(graph_name = "dag") ?node_label ?edge_label t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" graph_name);
  for v = 0 to t.n - 1 do
    let label =
      match node_label with
      | None -> string_of_int v
      | Some f -> f v
    in
    Buffer.add_string buf (Printf.sprintf "  n%d [label=\"%s\"];\n" v label)
  done;
  Array.iteri
    (fun e (s, d) ->
      match edge_label with
      | None -> Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" s d)
      | Some f ->
        Buffer.add_string buf (Printf.sprintf "  n%d -> n%d [label=\"%s\"];\n" s d (f e)))
    t.edges;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
