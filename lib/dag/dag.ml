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
  let frontier = Mcs_util.Heap.create () in
  let add v = Mcs_util.Heap.push frontier 0. v 0 0 0 in
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

(* Lexicographic order on int pairs: the order the polymorphic
   [compare] gives them, without its runtime call. *)
let compare_pairs ((a, b) : int * int) ((c, d) : int * int) =
  let first = Int.compare a c in
  if first <> 0 then first else Int.compare b d

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
  let dedup = List.sort_uniq compare_pairs edge_list in
  let edges = Array.of_list dedup in
  let succ = Array.make n [] and pred = Array.make n [] in
  Array.iteri
    (fun e (s, d) ->
      succ.(s) <- (d, e) :: succ.(s);
      pred.(d) <- (s, e) :: pred.(d))
    edges;
  let finalize l = Array.of_list (List.sort compare_pairs l) in
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
  if t.n = 0 then 0 else 1 + Array.fold_left Int.max 0 t.level

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
    Array.fold_left Int.max 0 counts
  end

let bottom_levels t ~node_weight ~edge_weight =
  let bl = Array.make t.n 0. in
  for i = t.n - 1 downto 0 do
    let v = t.topo.(i) in
    let best = ref 0. in
    Array.iter
      (fun (w, e) ->
        let via = edge_weight e +. bl.(w) in
        if via > !best then best := via)
      t.succ.(v);
    bl.(v) <- node_weight v +. !best
  done;
  bl

(* ---------------- Level kernel ----------------

   Bottom and top levels at zero edge weight over a node weight array,
   for loops that recompute them thousands of times (the SCRAP
   increment loop, the mapper's priorities). No closure is called and
   no float is boxed: the refresh helpers fold a node's level into a
   local, store it and return whether it moved. Their operands are
   those the closure passes evaluate with [~edge_weight:(fun _ -> 0.)],
   [0. +. bl.(w)] and [tl.(u) +. w.(u) +. 0.], folded in the same
   order, so the results are bit-identical (the tests keep the top
   pass's closure form as the reference). *)

let refresh_bottom t w bl v =
  let s = t.succ.(v) in
  let best = ref 0. in
  for j = 0 to Array.length s - 1 do
    let x, _ = s.(j) in
    let via = 0. +. bl.(x) in
    if via > !best then best := via
  done;
  let level = w.(v) +. !best in
  let moved = level <> bl.(v) in
  bl.(v) <- level;
  moved

let refresh_top t w tl v =
  let p = t.pred.(v) in
  let best = ref 0. in
  for j = 0 to Array.length p - 1 do
    let u, _ = p.(j) in
    let via = tl.(u) +. w.(u) +. 0. in
    if via > !best then best := via
  done;
  let moved = !best <> tl.(v) in
  tl.(v) <- !best;
  moved

let check_kernel name t w levels =
  if Array.length w < t.n || Array.length levels < t.n then
    invalid_arg ("Dag." ^ name ^ ": array shorter than node count")

let fill_bottom_levels t w bl =
  check_kernel "fill_bottom_levels" t w bl;
  for i = t.n - 1 downto 0 do
    ignore (refresh_bottom t w bl t.topo.(i))
  done

let fill_top_levels t w tl =
  check_kernel "fill_top_levels" t w tl;
  for i = 0 to t.n - 1 do
    ignore (refresh_top t w tl t.topo.(i))
  done

(* Flag the unflagged nodes of [adj] in [dirty]; returns how many. *)
let mark dirty adj =
  let added = ref 0 in
  for j = 0 to Array.length adj - 1 do
    let u, _ = adj.(j) in
    if Bytes.unsafe_get dirty u = '\000' then begin
      Bytes.unsafe_set dirty u '\001';
      incr added
    end
  done;
  !added

(* The wave after [changed]'s level inputs moved: refresh the nodes of
   [adj.(changed)], then transitively the [adj] neighbours of every
   node whose level moved. A node's level only moves when one of its
   inputs did, so refreshing exactly the flagged nodes, in the cached
   topological order walked by [step] so that every refresh sees
   final inputs, repairs the array; untouched nodes keep values
   computed from unchanged inputs. An outstanding-flag count stops the
   walk as soon as the wave dies out, so the cost is proportional to
   the affected cone's topological span, and every flag is cleared on
   the way. *)
let propagate t ~refresh ~adj ~step ~dirty w levels changed =
  let pending = ref (mark dirty adj.(changed)) in
  let i = ref (t.pos.(changed) + step) in
  while !pending > 0 do
    let v = t.topo.(!i) in
    if Bytes.unsafe_get dirty v = '\001' then begin
      Bytes.unsafe_set dirty v '\000';
      decr pending;
      if refresh t w levels v then pending := !pending + mark dirty adj.(v)
    end;
    i := !i + step
  done

let repair_levels t w ~changed ~dirty ~bl ~tl =
  check_kernel "repair_levels" t w bl;
  check_kernel "repair_levels" t w tl;
  if Bytes.length dirty < t.n then
    invalid_arg "Dag.repair_levels: dirty scratch shorter than node count";
  (* Predecessors sit strictly before [changed] in topological order,
     so the bottom wave walks down from it. *)
  if refresh_bottom t w bl changed then
    propagate t ~refresh:refresh_bottom ~adj:t.pred ~step:(-1) ~dirty w bl
      changed;
  (* [changed]'s own top level excludes its weight: the top wave
     starts at its successors and walks up. *)
  propagate t ~refresh:refresh_top ~adj:t.succ ~step:1 ~dirty w tl changed

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
