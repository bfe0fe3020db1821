type t =
  | Dag_acyclic
  | Dag_entry_exit
  | Dag_level_order
  | Dag_edge_bytes
  | Alloc_bounds
  | Alloc_level_share
  | Beta_range
  | Beta_share_sum
  | Map_structure
  | Map_virtual
  | Map_cluster
  | Map_overlap
  | Map_precedence
  | Map_packing
  | Map_release
  | Online_pin_stability
  | Online_beta_active
  | Online_time_travel
  | Fault_down_overlap
  | Fault_retry_bound
  | Fault_conservation
  | Mal_width_bounds
  | Mal_cost_accounting
  | Mal_overlap

let all =
  [
    Dag_acyclic;
    Dag_entry_exit;
    Dag_level_order;
    Dag_edge_bytes;
    Alloc_bounds;
    Alloc_level_share;
    Beta_range;
    Beta_share_sum;
    Map_structure;
    Map_virtual;
    Map_cluster;
    Map_overlap;
    Map_precedence;
    Map_packing;
    Map_release;
    Online_pin_stability;
    Online_beta_active;
    Online_time_travel;
    Fault_down_overlap;
    Fault_retry_bound;
    Fault_conservation;
    Mal_width_bounds;
    Mal_cost_accounting;
    Mal_overlap;
  ]

let id = function
  | Dag_acyclic -> "dag-acyclic"
  | Dag_entry_exit -> "dag-entry-exit"
  | Dag_level_order -> "dag-level-order"
  | Dag_edge_bytes -> "dag-edge-bytes"
  | Alloc_bounds -> "alloc-bounds"
  | Alloc_level_share -> "alloc-level-share"
  | Beta_range -> "beta-range"
  | Beta_share_sum -> "beta-share-sum"
  | Map_structure -> "map-structure"
  | Map_virtual -> "map-virtual"
  | Map_cluster -> "map-cluster"
  | Map_overlap -> "map-overlap"
  | Map_precedence -> "map-precedence"
  | Map_packing -> "map-packing"
  | Map_release -> "map-release"
  | Online_pin_stability -> "online-pin-stability"
  | Online_beta_active -> "online-beta-active"
  | Online_time_travel -> "online-time-travel"
  | Fault_down_overlap -> "fault-down-overlap"
  | Fault_retry_bound -> "fault-retry-bound"
  | Fault_conservation -> "fault-conservation"
  | Mal_width_bounds -> "mal-width-bounds"
  | Mal_cost_accounting -> "mal-cost-accounting"
  | Mal_overlap -> "mal-overlap"

let code = function
  | Dag_acyclic -> "DAG001"
  | Dag_entry_exit -> "DAG002"
  | Dag_level_order -> "DAG003"
  | Dag_edge_bytes -> "DAG004"
  | Alloc_bounds -> "ALLOC001"
  | Alloc_level_share -> "ALLOC002"
  | Beta_range -> "ALLOC003"
  | Beta_share_sum -> "ALLOC004"
  | Map_structure -> "MAP001"
  | Map_virtual -> "MAP002"
  | Map_cluster -> "MAP003"
  | Map_overlap -> "MAP004"
  | Map_precedence -> "MAP005"
  | Map_packing -> "MAP006"
  | Map_release -> "MAP007"
  | Online_pin_stability -> "ON001"
  | Online_beta_active -> "ON002"
  | Online_time_travel -> "ON003"
  | Fault_down_overlap -> "FAULT001"
  | Fault_retry_bound -> "FAULT002"
  | Fault_conservation -> "FAULT003"
  | Mal_width_bounds -> "MAL001"
  | Mal_cost_accounting -> "MAL002"
  | Mal_overlap -> "MAL003"

let of_id s = List.find_opt (fun r -> id r = s) all

let describe = function
  | Dag_acyclic -> "the precedence graph has no directed cycle"
  | Dag_entry_exit -> "the PTG has exactly one entry and one exit node"
  | Dag_level_order ->
    "every edge links a node to one at a strictly deeper precedence level"
  | Dag_edge_bytes -> "every edge's data volume is finite and non-negative"
  | Alloc_bounds ->
    "every real task holds between 1 reference processor and the largest \
     allocation that fits in a cluster"
  | Alloc_level_share ->
    "per precedence level, allocated processors stay within \
     max(level population, floor(beta x reference procs))"
  | Beta_range -> "every resource constraint beta lies in (0, 1]"
  | Beta_share_sum ->
    "under a sharing strategy the beta shares sum to at most 1"
  | Map_structure ->
    "placements are labeled by their node, times are finite and ordered, \
     the makespan is the exit finish time"
  | Map_virtual ->
    "virtual entry/exit tasks hold no processor and take no time; real \
     tasks hold at least one processor"
  | Map_cluster ->
    "a task's processors are distinct, in range, and all inside its \
     declared cluster"
  | Map_overlap -> "no processor runs two placements at overlapping times"
  | Map_precedence ->
    "a task starts only after every predecessor's finish plus the \
     redistribution of its data"
  | Map_packing ->
    "mapping never enlarged an allocation: the processors used are at \
     most the translated reference allocation"
  | Map_release -> "no placement starts before its application's submission"
  | Online_pin_stability ->
    "a started (pinned) task keeps cluster, processors and times across \
     every reschedule"
  | Online_beta_active ->
    "beta is recomputed over exactly the currently active applications"
  | Online_time_travel ->
    "a reschedule maps no task before the current virtual time and never \
     touches a not-yet-arrived application"
  | Fault_down_overlap ->
    "no execution attempt overlaps a down interval of any of its \
     processors (a kill truncates the attempt at the failure instant)"
  | Fault_retry_bound ->
    "no task suffers more transient failures than the retry policy allows"
  | Fault_conservation ->
    "work is conserved across re-executions: every real task completes \
     exactly once, as its chronologically last attempt, every completed \
     or transiently-failed attempt pays the full execution time, and a \
     killed attempt never exceeds it"
  | Mal_width_bounds ->
    "every resized segment keeps at least the malleability width floor, \
     actually changes width, and stays inside its cluster"
  | Mal_cost_accounting ->
    "resize overhead is charged per moved processor and the segments of \
     a resize chain sum to exactly one task's worth of work"
  | Mal_overlap ->
    "no processor runs two execution segments at overlapping times, \
     resized re-placements included"

let paper_ref = function
  | Dag_acyclic -> "Section 2 (PTG model: application = DAG)"
  | Dag_entry_exit -> "Section 2 (single entry and exit task)"
  | Dag_level_order -> "Section 4 (precedence levels)"
  | Dag_edge_bytes -> "Section 2 (data volumes on edges)"
  | Alloc_bounds -> "Section 3 (HCPA reference cluster, one-cluster tasks)"
  | Alloc_level_share -> "Section 4, Eq. 2 (SCRAP-MAX per-level constraint)"
  | Beta_range -> "Section 6 (beta is a share of the platform power)"
  | Beta_share_sum -> "Section 6, Eqs. 1-2 (ES/PS/WPS shares sum to 1)"
  | Map_structure -> "Section 5 (schedule = placement per task)"
  | Map_virtual -> "Section 2 (zero-cost virtual entry/exit tasks)"
  | Map_cluster -> "Section 2 (data-parallel tasks run inside one cluster)"
  | Map_overlap -> "Section 5 (processor availability in the list mapping)"
  | Map_precedence -> "Section 5 (data-ready times with redistribution costs)"
  | Map_packing -> "Section 5 (allocation packing only shrinks)"
  | Map_release -> "Section 8 (submission dates, online extension)"
  | Online_pin_stability -> "Section 8 (running tasks cannot be revoked)"
  | Online_beta_active ->
    "Section 8 (an online scheduler cannot know future submissions)"
  | Online_time_travel -> "Section 8 (reschedules act on the future only)"
  | Fault_down_overlap ->
    "extension: fault model (dead processors execute nothing)"
  | Fault_retry_bound -> "extension: fault model (bounded retry policy)"
  | Fault_conservation ->
    "extension: fault model (lost work is re-executed, never dropped)"
  | Mal_width_bounds ->
    "extension: malleable tasks (Guermouche et al., legal widths)"
  | Mal_cost_accounting ->
    "extension: malleable tasks (redistribution cost per moved processor)"
  | Mal_overlap ->
    "extension: malleable tasks (resize re-placement stays conflict-free)"
