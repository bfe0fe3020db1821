(* An all-float record is stored flat, so writing the rate allocates
   nothing; a [mutable rate : float] field of [flow] would box it. *)
type rate = { mutable bytes_per_s : float }

type 'a flow = {
  route : int array;
  data : 'a;
  rate : rate;
  mutable index : int;  (* position in [active]; -1 once removed *)
}

type work = { updates : int; rounds : int; links_visited : int }

(* [flows] counts the active flows crossing each link. The links with a
   non-zero count, the live links, sit in [live] in [0, live_size), and
   [live_pos] holds each live link's position there; [add_flow] and
   [remove_flow] keep the three in step. [remaining], [count] (a link's
   unfrozen flows) and [share] are scratch for [update], which starts
   them from [capacities] and [flows] on the live links only.
   [unfrozen] and [freeze] hold indices into [active]. *)
type 'a t = {
  capacities : float array;
  flows : int array;
  live : int array;
  live_pos : int array;
  mutable live_size : int;
  remaining : float array;
  count : int array;
  share : float array;
  mutable active : 'a flow array;  (* oldest first, valid in [0, size) *)
  mutable size : int;
  mutable unfrozen : int array;
  mutable freeze : int array;
  mutable updates : int;
  mutable rounds : int;
  mutable links_visited : int;
}

let max_rate = 1e18

(* [Float.max] and [Float.min] without their runtime calls: the stdlib's
   inlined versions test sign bits through [caml_signbit], a C call,
   whenever the first comparison fails. Each returns the operand the
   [Float] function returns, signed zeros and a single NaN included.
   Local, because under the dev profile's [-opaque] a helper in another
   module is a real call that boxes its floats. *)
let[@inline] fmax (x : float) y =
  if y > x then y
  else if x > y then x
  else if x = y then if x = 0. && 1. /. x < 0. then y else x
  else if y <> y then y
  else x

let[@inline] fmin (x : float) y =
  if y < x then y
  else if x < y then x
  else if x = y then if y = 0. && 1. /. y < 0. then y else x
  else if y <> y then y
  else x

let create ~capacities =
  Array.iter
    (fun c ->
      if not (Float.is_finite c && c > 0.) then
        invalid_arg "Flow_network.create: capacity not finite and positive")
    capacities;
  let nl = Array.length capacities in
  {
    capacities = Array.copy capacities;
    flows = Array.make nl 0;
    live = Array.make nl 0;
    live_pos = Array.make nl 0;
    live_size = 0;
    remaining = Array.make nl 0.;
    count = Array.make nl 0;
    share = Array.make nl 0.;
    active = [||];
    size = 0;
    unfrozen = [||];
    freeze = [||];
    updates = 0;
    rounds = 0;
    links_visited = 0;
  }

let link_count t = Array.length t.capacities
let rate f = f.rate.bytes_per_s
let data f = f.data

let work t =
  { updates = t.updates; rounds = t.rounds; links_visited = t.links_visited }

let add_flow t route data =
  List.iter
    (fun l ->
      if l < 0 || l >= link_count t then
        invalid_arg (Printf.sprintf "Flow_network.add_flow: link %d" l))
    route;
  let route = Array.of_list (List.sort_uniq Int.compare route) in
  let f = { route; data; rate = { bytes_per_s = 0. }; index = t.size } in
  if t.size = Array.length t.active then begin
    let n = Int.max 8 (2 * t.size) in
    let active = Array.make n f in
    Array.blit t.active 0 active 0 t.size;
    t.active <- active;
    t.unfrozen <- Array.make n 0;
    t.freeze <- Array.make n 0
  end;
  t.active.(t.size) <- f;
  t.size <- t.size + 1;
  for j = 0 to Array.length route - 1 do
    let l = route.(j) in
    if t.flows.(l) = 0 then begin
      t.live.(t.live_size) <- l;
      t.live_pos.(l) <- t.live_size;
      t.live_size <- t.live_size + 1
    end;
    t.flows.(l) <- t.flows.(l) + 1
  done;
  f

let remove_flow t f =
  let i = f.index in
  if i < 0 || i >= t.size || t.active.(i) != f then
    invalid_arg "Flow_network.remove_flow: flow not active";
  for k = i to t.size - 2 do
    let g = t.active.(k + 1) in
    t.active.(k) <- g;
    g.index <- k
  done;
  t.size <- t.size - 1;
  f.index <- -1;
  for j = 0 to Array.length f.route - 1 do
    let l = f.route.(j) in
    let n = t.flows.(l) - 1 in
    t.flows.(l) <- n;
    if n = 0 then begin
      (* The last live link takes the dead one's place. *)
      let last = t.live.(t.live_size - 1) in
      t.live.(t.live_pos.(l)) <- last;
      t.live_pos.(last) <- t.live_pos.(l);
      t.live_size <- t.live_size - 1
    end
  done

let iter t fn =
  for i = t.size - 1 downto 0 do
    fn t.active.(i)
  done

(* Progressive filling: repeatedly find the smallest binding
   constraint — a link's equal share, or [max_rate], the bound every
   flow has — freeze the flows it binds at that rate, and subtract the
   frozen bandwidth from their links. This yields the max-min fair
   allocation.

   Only the live links are visited, in whatever order [live] holds
   them: the smallest share is order-free. A round decides its whole
   binding set against the shares at its start, then freezes that set
   newest flow first, subtracting from each link in that order and
   decrementing its unfrozen count. Every float is the same operation
   on the same operands, in the same order, as the textbook
   formulation that recounts every link each round (kept in the tests
   as the reference). *)
let update t =
  t.updates <- t.updates + 1;
  for k = 0 to t.live_size - 1 do
    let l = t.live.(k) in
    t.remaining.(l) <- t.capacities.(l);
    t.count.(l) <- t.flows.(l)
  done;
  for k = 0 to t.size - 1 do
    t.unfrozen.(k) <- t.size - 1 - k
  done;
  let nu = ref t.size in
  while !nu > 0 do
    t.rounds <- t.rounds + 1;
    t.links_visited <- t.links_visited + t.live_size;
    let link_share = ref Float.infinity in
    for k = 0 to t.live_size - 1 do
      let l = t.live.(k) in
      if t.count.(l) > 0 then begin
        let s = t.remaining.(l) /. float_of_int t.count.(l) in
        t.share.(l) <- s;
        link_share := fmin !link_share s
      end
    done;
    let bound = !link_share in
    if bound >= max_rate then begin
      (* Nothing binds: the remaining flows are unbounded. *)
      for k = 0 to !nu - 1 do
        t.active.(t.unfrozen.(k)).rate.bytes_per_s <- max_rate
      done;
      nu := 0
    end
    else begin
      let tol = 1e-12 *. fmax 1. bound in
      let limit = bound +. tol in
      (* Within tolerance, the [max_rate] bound binds every flow. *)
      let at_max_rate = max_rate <= limit in
      let nf = ref 0 and nk = ref 0 in
      for k = 0 to !nu - 1 do
        let i = t.unfrozen.(k) in
        let f = t.active.(i) in
        let binds = ref at_max_rate in
        let j = ref 0 in
        while (not !binds) && !j < Array.length f.route do
          if t.share.(f.route.(!j)) <= limit then binds := true;
          incr j
        done;
        if !binds then begin
          t.freeze.(!nf) <- i;
          incr nf
        end
        else begin
          t.unfrozen.(!nk) <- i;
          incr nk
        end
      done;
      (* At least one flow realises the bound, so we always progress. *)
      assert (!nf > 0);
      for k = 0 to !nf - 1 do
        let f = t.active.(t.freeze.(k)) in
        f.rate.bytes_per_s <- bound;
        for j = 0 to Array.length f.route - 1 do
          let l = f.route.(j) in
          t.remaining.(l) <- fmax 0. (t.remaining.(l) -. bound);
          t.count.(l) <- t.count.(l) - 1
        done
      done;
      nu := !nk
    end
  done
