module Dag = Mcs_dag.Dag
module Ptg = Mcs_ptg.Ptg
module Task = Mcs_taskmodel.Task
module Obs = Mcs_obs.Obs
module Floatx = Mcs_util.Floatx

let c_calls = Obs.counter "alloc.calls"
let c_increments = Obs.counter "alloc.increments"
let c_hits = Obs.counter "alloc.cache.hits"
let c_rescales = Obs.counter "alloc.cache.rescales"
let c_misses = Obs.counter "alloc.cache.misses"

type procedure = Scrap | Scrap_max

type result = {
  procs : int array;
  iterations : int;
  critical_path : float;
  average_area : float;
}

(* The epsilon guards against [beta *. procs] landing one ulp below an
   integer (e.g. 0.57 × 100 = 56.999999999999993), which would silently
   drop a whole processor from the level budget. *)
let budget_of ref_cluster ~beta =
  Int.max 1
    (int_of_float
       (Float.floor
          ((beta *. float_of_int ref_cluster.Reference_cluster.procs)
          +. Floatx.eps)))

(* ---------------- The CPA/SCRAP increment loop ----------------

   The loop state is (procs, usage, exec, area): per-node allocations,
   per-level usage, per-node execution estimates under those
   allocations, and the running raw area Σ exec·procs (the numerator of
   the CPA average-area criterion — β only enters through the divisor
   β·procs, applied at the comparison). The area is maintained
   incrementally: one increment changes exactly one term of the sum.

   Everything below β is deterministic in (budget, cap): the candidate
   filter reads β only through the integer per-level [budget], so two
   calls agreeing on (budget, cap) walk the {e same} increment
   trajectory and differ only in where the β-continuous stop criterion
   fires. The allocation cache sharpens this per step: each increment
   records the budget and cap {e intervals} under which its choice is
   provably unchanged, so one recorded trajectory serves whole ranges
   of budgets and caps, not just the pair it ran under. *)

let initial_area exec procs n =
  let area = ref 0. in
  for v = 0 to n - 1 do
    area := !area +. (exec.(v) *. float_of_int procs.(v))
  done;
  !area

(* The inner loop prices thousands of candidate increments; deriving a
   task's flop count every time means a [pow]/[log] per candidate
   (Task.flops). The sequential time on the reference speed is constant
   per node, so it is computed once per allocation and Amdahl's law
   applied directly — the same expression [Task.time] evaluates, on the
   same floats, so the results are bit-identical. *)
let fill_seq_alpha ~gflops ptg ~seq ~alpha n =
  for v = 0 to n - 1 do
    let task = ptg.Ptg.tasks.(v) in
    seq.(v) <- (if Task.is_zero task then 0. else Task.seq_time task ~gflops);
    alpha.(v) <- task.Task.alpha
  done

let[@inline] exec_at ~seq ~alpha v ~procs =
  seq.(v) *. (alpha.(v) +. ((1. -. alpha.(v)) /. float_of_int procs))

(* One run of the increment loop from the state in [procs]/[usage]/
   [exec]/[area0] until the stop criterion (cp ≤ area/β·procs) or
   candidate exhaustion. The levels, gains and excluded candidates
   live in [arena]'s buffers. [record_state] observes every visited
   state (its critical path and raw area, the final one included);
   [record_inc] the chosen node of every increment together with the
   region [[req, ceil) × [clo, chi)] of (budget, cap) pairs under which
   the choice is provably the one the loop would make:
   - [req] is the per-level usage the choice consumes (the smallest
     budget that allows it), [clo] its allocation plus one (the
     smallest cap that allows it);
   - [ceil] and [chi] are the smallest budget and cap that would admit
     a critical candidate this run excluded and that would beat the
     choice ([max_int] when there is none). A candidate the cap
     excluded counts towards [chi] only, whatever its budget, so the
     region stays a product of intervals.
   Returns (increments done, final critical path, final raw area,
   closed, closed_ceil, closed_chi): when the run ends by candidate
   exhaustion, [closed_ceil] and [closed_chi] bound, the same way, the
   budgets and caps under which it would still be exhausted.

   Every reschedule runs this loop, so it allocates nothing of its own:
   levels come from the closure-free {!Dag} kernel over [exec], the
   scan keeps its winner in an int and a float local, and the bounds
   come from a walk over the [excluded] buffer the scan filled. *)
let run_loop ~record_state ~record_inc ~procedure ~budget ~cap ~beta_power
    ~arena ~seq ~alpha ptg levels ~procs ~usage ~exec area0 =
  let bl = Alloc_arena.bl arena and tl = Alloc_arena.tl arena in
  let gain = Alloc_arena.gain arena and dirty = Alloc_arena.dirty arena in
  let excluded = Alloc_arena.excluded arena in
  let dag = ptg.Ptg.dag in
  let n = Dag.node_count dag in
  let entry = Ptg.entry ptg in
  let per_level = match procedure with Scrap -> false | Scrap_max -> true in
  let area = ref area0 in
  let steps = ref 0 in
  let max_steps = (cap * n) + 1 in
  let continue = ref true in
  let closed = ref false in
  let closed_ceil = ref max_int in
  let closed_chi = ref max_int in
  let cp = ref 0. in
  (* Bottom and top levels under the starting exec times (computation
     only, as in CPA: communications are handled at mapping time). Each
     increment changes exactly one execution time, so the loop repairs
     the levels along the affected cone instead of re-traversing the
     DAG per iteration. *)
  Dag.fill_bottom_levels dag exec bl;
  Dag.fill_top_levels dag exec tl;
  (* A node's gain (speedup of one more processor) moves only when its
     own allocation does, so it is priced once here and re-priced per
     increment received — not per candidate scan. *)
  for v = 0 to n - 1 do
    gain.(v) <- exec.(v) -. exec_at ~seq ~alpha v ~procs:(procs.(v) + 1)
  done;
  while !continue && !steps < max_steps do
    cp := bl.(entry);
    record_state !cp !area;
    if !cp <= (!area /. beta_power) +. Floatx.eps then continue := false
    else begin
      (* Candidates: critical tasks that can still grow. Virtual nodes
         are skipped via [seq.(v) = 0.] (zero task ⇔ zero sequential
         time; a zero-seq node can never show positive gain either), a
         plain float load where [Ptg.is_virtual] is a call per node per
         step. The winner is the first maximum of the positive gains;
         [best < 0] while there is none. A critical candidate the cap
         or the budget excludes goes to [excluded] if its gain is
         positive: only those can bound the choice below. *)
      let tolerance = 1e-9 *. (if !cp > 1. then !cp else 1.) in
      let best = ref (-1) in
      let best_gain = ref 0. in
      let n_excluded = ref 0 in
      for v = 0 to n - 1 do
        if seq.(v) > 0. && Float.abs (tl.(v) +. bl.(v) -. !cp) <= tolerance
        then
          if
            procs.(v) < cap
            && ((not per_level) || usage.(levels.(v)) + 1 <= budget)
          then begin
            let g = gain.(v) in
            if g > !best_gain then begin
              best := v;
              best_gain := g
            end
          end
          else if gain.(v) > 0. then begin
            excluded.(!n_excluded) <- v;
            incr n_excluded
          end
      done;
      (* The smallest budget and cap that would have changed the
         selection above: an excluded candidate [u] displaces the scan
         winner [c] iff its gain is strictly larger, or equal with [u]
         scanned first (the scan keeps the first maximum). With no
         winner, any excluded candidate continues the loop. A candidate
         the cap admits was excluded by the budget, so it bounds the
         budget. *)
      let ceil = ref max_int in
      let chi = ref max_int in
      for k = 0 to !n_excluded - 1 do
        let u = excluded.(k) in
        let g = gain.(u) in
        if !best < 0 || g > !best_gain || (g = !best_gain && u < !best) then
          if procs.(u) >= cap then chi := Int.min !chi (procs.(u) + 1)
          else ceil := Int.min !ceil (usage.(levels.(u)) + 1)
      done;
      if !best < 0 then begin
        continue := false;
        closed := true;
        closed_ceil := !ceil;
        closed_chi := !chi
      end
      else begin
        let v = !best in
        let req = if per_level then usage.(levels.(v)) + 1 else 1 in
        record_inc v ~req ~ceil:!ceil ~clo:(procs.(v) + 1) ~chi:!chi;
        let before = exec.(v) *. float_of_int procs.(v) in
        procs.(v) <- procs.(v) + 1;
        usage.(levels.(v)) <- usage.(levels.(v)) + 1;
        exec.(v) <- exec_at ~seq ~alpha v ~procs:procs.(v);
        gain.(v) <- exec.(v) -. exec_at ~seq ~alpha v ~procs:(procs.(v) + 1);
        area := !area -. before +. (exec.(v) *. float_of_int procs.(v));
        Dag.repair_levels dag exec ~changed:v ~dirty ~bl ~tl;
        Obs.incr c_increments;
        incr steps
      end
    end
  done;
  (!steps, !cp, !area, !closed, !closed_ceil, !closed_chi)

let no_state (_ : float) (_ : float) = ()

let no_inc (_ : int) ~req:(_ : int) ~ceil:(_ : int) ~clo:(_ : int)
    ~chi:(_ : int) =
  ()

(* NaN fails both comparisons, so it is rejected too. *)
let check_beta beta =
  if not (beta > 0. && beta <= 1.) then
    invalid_arg (Printf.sprintf "Allocation.allocate: beta = %g" beta)

(* The loop's starting state: one processor per node. *)
let initial_state ~seq ~alpha ptg levels ~depth n =
  let procs = Array.make n 1 in
  let usage = Array.make depth 0 in
  let exec = Array.make n 0. in
  for v = 0 to n - 1 do
    if not (Ptg.is_virtual ptg v) then
      usage.(levels.(v)) <- usage.(levels.(v)) + 1;
    exec.(v) <- exec_at ~seq ~alpha v ~procs:1
  done;
  (procs, usage, exec)

let allocate ?(procedure = Scrap_max) ?up_counts ref_cluster platform ~beta
    ptg =
  check_beta beta;
  Obs.with_span "alloc.scrap" @@ fun () ->
  Obs.incr c_calls;
  let dag = ptg.Ptg.dag in
  let n = Dag.node_count dag in
  let levels = Dag.depth_levels dag in
  let arena = Alloc_arena.create () in
  Alloc_arena.reserve arena ~nodes:n;
  let seq = Array.make n 0. in
  let alpha = Array.make n 0. in
  fill_seq_alpha ~gflops:ref_cluster.Reference_cluster.speed ptg ~seq ~alpha n;
  let procs, usage, exec =
    initial_state ~seq ~alpha ptg levels ~depth:(Int.max 1 (Dag.depth dag)) n
  in
  let cap = Reference_cluster.max_allocation ?up_counts ref_cluster platform in
  let budget = budget_of ref_cluster ~beta in
  let beta_power = beta *. float_of_int ref_cluster.Reference_cluster.procs in
  let steps, cp, area, _closed, _closed_ceil, _closed_chi =
    run_loop ~record_state:no_state ~record_inc:no_inc ~procedure ~budget ~cap
      ~beta_power ~arena ~seq ~alpha ptg levels ~procs ~usage ~exec
      (initial_area exec procs n)
  in
  {
    procs;
    iterations = steps;
    critical_path = cp;
    average_area = area /. beta_power;
  }

(* ---------------- Allocation cache ----------------

   One cache per application: per engine application online, per PTG
   in an offline evaluation. An entry materialises one increment
   trajectory: the node chosen at every step plus the critical path and
   raw area of every visited state, together with the frontier loop
   state so the trajectory can be extended when a β wants to stop later
   than any β seen so far.

   β enters the loop twice, and the entry captures both channels:

   - {e continuously}, through the stop criterion cp ≤ area/β·procs —
     replayed per request against the recorded (cp, area) pairs;
   - {e discretely}, through the integer per-level budget ⌊β·procs⌋ in
     the candidate filter.

   The allocation cap, which moves when the platform degrades or
   recovers, enters through the same filter. Each recorded step carries
   a budget interval [[req, ceil)] and a cap interval [[clo, chi)]
   (see [run_loop]) inside which the recorded choice is provably what a
   scratch run would choose. A replay walks the trajectory checking the
   request's budget and cap against each step's intervals, so entries
   are not keyed by cap: one trajectory serves every (budget, cap) pair
   its steps admit, and a request that escapes some step's interval
   diverges there, sharing the validated prefix.

   Either way a served result is bit-identical to a scratch run: the
   scratch loop would walk the same trajectory and apply the same stop
   test to the same floats. *)

type entry = {
  e_levels : int array;
  (* Trajectory: states 0..len carry (cps, areas); step i < len turned
     state i into state i+1. Its record is the [step_ints] ints of
     [steps] from [i * step_ints]: the node given one more processor,
     then the budget interval [req, ceil) and the cap interval
     [clo, chi) the choice is valid in. *)
  mutable e_steps : int array;
  mutable e_cps : float array;
  mutable e_areas : float array;
  mutable e_len : int;
  mutable e_closed : bool;  (* state [len] has no candidate left *)
  mutable e_closed_ceil : int;
      (* smallest budget that would continue past a closed [len] *)
  mutable e_closed_chi : int;  (* the same for caps *)
  (* Frontier loop state (state [len]), for extension. *)
  e_procs : int array;
  e_usage : int array;
  e_exec : float array;
  (* Exact-hit key of the last request served from this entry, and its
     result (procs owned by the cache). β only reaches the loop through
     the integer budget and the continuous stop power β·procs, so those
     two — not β itself — together with the cap decide whether a repeat
     request reproduces the stored result: the same β can mean a
     different budget and stop power on a degraded reference cluster. *)
  mutable e_cap : int;
  mutable e_budget : int;
  mutable e_bpower : float;
  mutable e_res : result;
}

let step_ints = 5

type stats = { hits : int; rescales : int; misses : int }

type cache = {
  mutable entries : entry list;  (* most recently used first *)
  mutable hits : int;
  mutable rescales : int;
  mutable misses : int;
  mutable bound_ptg : Ptg.t option;
  mutable bound_procedure : procedure option;
  mutable bound_speed : float;
  (* Per-node sequential times and Amdahl fractions, computed once when
     the cache binds (they depend only on the bound PTG and speed). *)
  mutable bound_seq : float array;
  mutable bound_alpha : float array;
}

(* Trajectories kept per application. Budget and cap intervals let one
   trajectory serve whole ranges of both, so entries proliferate only
   across genuinely divergent trajectories (budgets or caps that admit
   different candidates); a small MRU list captures nearly all reuse
   while bounding memory at serving scale. *)
let max_entries = 8

let cache_create () =
  {
    entries = [];
    hits = 0;
    rescales = 0;
    misses = 0;
    bound_ptg = None;
    bound_procedure = None;
    bound_speed = Float.nan;
    bound_seq = [||];
    bound_alpha = [||];
  }

(* Full release: entries and the PTG/procedure/speed binding both go.
   A departed application's cache must drop the binding so the PTG
   itself becomes collectable — and so that invalidation is scoped by
   construction: only the departing application's cache is touched,
   never a neighbour's. *)
let cache_release cache =
  cache.entries <- [];
  cache.bound_ptg <- None;
  cache.bound_procedure <- None;
  cache.bound_speed <- Float.nan;
  cache.bound_seq <- [||];
  cache.bound_alpha <- [||]

let cache_stats cache =
  { hits = cache.hits; rescales = cache.rescales; misses = cache.misses }
let cache_entry_count cache = List.length cache.entries

(* A cache is bound to one PTG, one procedure and one reference speed
   for its whole life; mixing inputs would serve one application's
   trajectories to another. Everything else an allocation depends on
   (β, the reference-cluster size, the degraded cap) is checked at
   replay time. *)
let bind_guards cache ~procedure ~speed ptg =
  (match cache.bound_ptg with
  | None -> cache.bound_ptg <- Some ptg
  | Some p ->
    if p != ptg then invalid_arg "Allocation.allocate_cached: PTG changed");
  (match cache.bound_procedure with
  | None -> cache.bound_procedure <- Some procedure
  | Some p ->
    if p <> procedure then
      invalid_arg "Allocation.allocate_cached: procedure changed");
  if Float.is_nan cache.bound_speed then cache.bound_speed <- speed
  else if cache.bound_speed <> speed then
    invalid_arg "Allocation.allocate_cached: reference speed changed"

let grow_ints a need =
  if Array.length a >= need then a
  else begin
    let b = Array.make (Int.max need ((2 * Array.length a) + 64)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

let grow_floats a need =
  if Array.length a >= need then a
  else begin
    let b = Array.make (Int.max need ((2 * Array.length a) + 64)) 0. in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Replay the recorded stop tests under a request's (budget, cap,
   β·procs): walk the states in order, stopping at the first one whose
   criterion fires; between states, check the step's budget and cap
   intervals. [Diverged at] means states 0..at are valid under this
   budget and cap but the choice at step [at] would differ — the shared
   prefix a fork can build on. *)
type replay = Stopped of int | Needs_extension | Diverged of int

let replay_stop e ~budget ~cap ~beta_power =
  let rec scan i =
    if e.e_cps.(i) <= (e.e_areas.(i) /. beta_power) +. Floatx.eps then
      Stopped i
    else if i < e.e_len then
      let s = e.e_steps and k = i * step_ints in
      if
        s.(k + 1) <= budget && budget < s.(k + 2)
        && s.(k + 3) <= cap && cap < s.(k + 4)
      then scan (i + 1)
      else Diverged i
    else if e.e_closed && budget < e.e_closed_ceil && cap < e.e_closed_chi
    then
      (* Exhausted under this budget and cap too: every excluded
         candidate needs more than [budget] or more than [cap] (a
         smaller budget or cap only shrinks the set). *)
      Stopped e.e_len
    else Needs_extension
  in
  scan 0

let result_at e ~beta_power s =
  let procs =
    if s = e.e_len then Array.copy e.e_procs
    else begin
      let p = Array.make (Array.length e.e_procs) 1 in
      for i = 0 to s - 1 do
        let v = e.e_steps.(i * step_ints) in
        p.(v) <- p.(v) + 1
      done;
      p
    end
  in
  {
    procs;
    iterations = s;
    critical_path = e.e_cps.(s);
    average_area = e.e_areas.(s) /. beta_power;
  }

let record_inc_of e v ~req ~ceil ~clo ~chi =
  let k = e.e_len * step_ints in
  e.e_steps <- grow_ints e.e_steps (k + step_ints);
  let s = e.e_steps in
  s.(k) <- v;
  s.(k + 1) <- req;
  s.(k + 2) <- ceil;
  s.(k + 3) <- clo;
  s.(k + 4) <- chi

(* Continue the trajectory from the frontier until the stop criterion
   under [beta_power] or candidate exhaustion, appending every new
   state. The appended steps are recorded under the {e request's}
   budget and cap — their intervals carry them, so later replays under
   other budgets and caps stay sound. An entry with no state yet
   records the loop's first state as its state 0; otherwise the first
   state is the frontier, already recorded, and the loop starts from
   its recorded area (summed incrementally: recomputing it would differ
   in the last bits). *)
let extend e ~procedure ~budget ~cap ~beta_power ~arena ~seq ~alpha ptg =
  let skip = ref (e.e_len >= 0) in
  let record_state cp area =
    if !skip then skip := false
    else begin
      let i = e.e_len + 1 in
      e.e_cps <- grow_floats e.e_cps (i + 1);
      e.e_areas <- grow_floats e.e_areas (i + 1);
      e.e_cps.(i) <- cp;
      e.e_areas.(i) <- area;
      e.e_len <- i
    end
  in
  let area0 =
    if e.e_len < 0 then
      initial_area e.e_exec e.e_procs (Array.length e.e_procs)
    else e.e_areas.(e.e_len)
  in
  let _steps, _cp, _area, closed, closed_ceil, closed_chi =
    (* Live loop steps (the only DAG traversals of the cached paths)
       are accounted to the same span as scratch runs. *)
    Obs.with_span "alloc.scrap" @@ fun () ->
    run_loop ~record_state ~record_inc:(record_inc_of e) ~procedure ~budget
      ~cap ~beta_power ~arena ~seq ~alpha ptg e.e_levels ~procs:e.e_procs
      ~usage:e.e_usage ~exec:e.e_exec area0
  in
  e.e_closed <- closed;
  e.e_closed_ceil <- closed_ceil;
  e.e_closed_chi <- closed_chi

(* A new entry, run live under the request's budget and cap until the
   request stops: fresh (the cache-miss path, counted as an
   [alloc.calls] allocation like any other scratch run), or sharing the
   first [at > 0] steps of [src]. The shared states are bit-identical
   to what a scratch run under the request would visit (the replay
   validated their intervals before diverging), so only the tail past
   the divergence runs live. The prefix costs O(nodes + at) integer
   work and float copies — no DAG traversals, which is what makes
   budget and cap churn cheap: online budgets drift a few processors
   per generation, an outage moves the cap past few recorded steps, so
   trajectories diverge deep and the live tail is short. *)
let new_entry ~prefix ~procedure ~budget ~cap ~beta_power ~arena ~seq ~alpha
    ptg =
  let dag = ptg.Ptg.dag in
  let src, at =
    match prefix with
    | Some (src, at) when at > 0 -> (Some src, at)
    | Some _ | None ->
      Obs.incr c_calls;
      (None, 0)
  in
  let levels =
    match src with Some src -> src.e_levels | None -> Dag.depth_levels dag
  in
  let procs, usage, exec =
    initial_state ~seq ~alpha ptg levels ~depth:(Int.max 1 (Dag.depth dag))
      (Dag.node_count dag)
  in
  let size = Int.max 64 (at + 1) in
  let e =
    {
      e_levels = levels;
      e_steps = Array.make (size * step_ints) 0;
      e_cps = Array.make size 0.;
      e_areas = Array.make size 0.;
      e_len = (if at = 0 then -1 else at);
      e_closed = false;
      e_closed_ceil = max_int;
      e_closed_chi = max_int;
      e_procs = procs;
      e_usage = usage;
      e_exec = exec;
      e_cap = cap;
      e_budget = -1;
      e_bpower = Float.nan;
      e_res =
        { procs = [||]; iterations = 0; critical_path = 0.; average_area = 0. };
    }
  in
  Option.iter
    (fun src ->
      for i = 0 to at - 1 do
        let v = src.e_steps.(i * step_ints) in
        procs.(v) <- procs.(v) + 1;
        usage.(levels.(v)) <- usage.(levels.(v)) + 1;
        exec.(v) <- exec_at ~seq ~alpha v ~procs:procs.(v)
      done;
      Array.blit src.e_steps 0 e.e_steps 0 (at * step_ints);
      Array.blit src.e_cps 0 e.e_cps 0 (at + 1);
      Array.blit src.e_areas 0 e.e_areas 0 (at + 1))
    src;
  extend e ~procedure ~budget ~cap ~beta_power ~arena ~seq ~alpha ptg;
  e

type trajectory = {
  steps : int array;
  cps : float array;
  areas : float array;
  closed : bool;
  closed_ceil : int;
  closed_chi : int;
}

let trajectory ~procedure ~budget ~cap ~beta_power ref_cluster ptg =
  let n = Dag.node_count ptg.Ptg.dag in
  let seq = Array.make n 0. and alpha = Array.make n 0. in
  fill_seq_alpha ~gflops:ref_cluster.Reference_cluster.speed ptg ~seq ~alpha n;
  let arena = Alloc_arena.create () in
  Alloc_arena.reserve arena ~nodes:n;
  let e =
    new_entry ~prefix:None ~procedure ~budget ~cap ~beta_power ~arena ~seq
      ~alpha ptg
  in
  {
    steps = Array.sub e.e_steps 0 (e.e_len * step_ints);
    cps = Array.sub e.e_cps 0 (e.e_len + 1);
    areas = Array.sub e.e_areas 0 (e.e_len + 1);
    closed = e.e_closed;
    closed_ceil = e.e_closed_ceil;
    closed_chi = e.e_closed_chi;
  }

(* An entry already at the head stays there, and the list, which no
   promotion lets grow past [max_entries], is left as it is. *)
let promote cache e =
  match cache.entries with
  | head :: _ when head == e -> ()
  | entries ->
    let rest = List.filter (fun x -> x != e) entries in
    cache.entries <- e :: List.filteri (fun i _ -> i < max_entries - 1) rest

let allocate_cached ?(procedure = Scrap_max) ?up_counts ~cache ~arena
    ref_cluster platform ~beta ptg =
  check_beta beta;
  Obs.with_span "alloc.cache" @@ fun () ->
  bind_guards cache ~procedure
    ~speed:ref_cluster.Reference_cluster.speed ptg;
  let n = Dag.node_count ptg.Ptg.dag in
  (* Reserve here, for every path: a caller may pass a warm cache with
     a fresh arena, and the extend/fork paths then run on its very
     first call. *)
  Alloc_arena.reserve arena ~nodes:n;
  if Array.length cache.bound_seq < n then begin
    cache.bound_seq <- Array.make n 0.;
    cache.bound_alpha <- Array.make n 0.;
    fill_seq_alpha ~gflops:cache.bound_speed ptg ~seq:cache.bound_seq
      ~alpha:cache.bound_alpha n
  end;
  let seq = cache.bound_seq in
  let alpha = cache.bound_alpha in
  let budget = budget_of ref_cluster ~beta in
  let cap = Reference_cluster.max_allocation ?up_counts ref_cluster platform in
  let beta_power = beta *. float_of_int ref_cluster.Reference_cluster.procs in
  let serve e stop =
    let res = result_at e ~beta_power stop in
    e.e_cap <- cap;
    e.e_budget <- budget;
    e.e_bpower <- beta_power;
    e.e_res <- res;
    promote cache e;
    res
  in
  (* Scan MRU-first for an entry that can serve this request: an exact
     repeat of its last request is served as-is (its stored result came
     from a sound replay); otherwise the replay decides — a divergence
     (the request's budget or cap falls outside some step's interval)
     falls through to the next entry, remembering the deepest shared
     prefix. When no entry serves, a miss forks off that prefix instead
     of starting from scratch (or runs a fully fresh scratch recording
     when no entry validated a step). *)
  let rec find best = function
    | [] ->
      cache.misses <- cache.misses + 1;
      Obs.incr c_misses;
      let e =
        new_entry ~prefix:best ~procedure ~budget ~cap ~beta_power ~arena ~seq
          ~alpha ptg
      in
      (* The live run went under exactly this request, so it stops at
         the trajectory end (β-stopped or exhausted either way). *)
      serve e e.e_len
    | e :: _
      when e.e_cap = cap && e.e_budget = budget && e.e_bpower = beta_power ->
      cache.hits <- cache.hits + 1;
      Obs.incr c_hits;
      promote cache e;
      e.e_res
    | e :: rest -> (
      match replay_stop e ~budget ~cap ~beta_power with
      | Diverged at ->
        let best =
          match best with
          | Some (_, at') when at' >= at -> best
          | Some _ | None -> Some (e, at)
        in
        find best rest
      | Stopped s ->
        cache.rescales <- cache.rescales + 1;
        Obs.incr c_rescales;
        serve e s
      | Needs_extension ->
        cache.rescales <- cache.rescales + 1;
        Obs.incr c_rescales;
        (* Continue the trajectory under this request's budget and cap:
           the extension either β-stops at the new frontier or exhausts
           — both stop at the new state [len]. *)
        extend e ~procedure ~budget ~cap ~beta_power ~arena ~seq ~alpha ptg;
        serve e e.e_len)
  in
  find None cache.entries
