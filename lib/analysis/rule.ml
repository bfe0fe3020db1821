type t =
  | Lock_guarded_unlocked
  | Lock_order_cycle
  | Lock_wait_outside_loop
  | Escape_captured_write
  | Escape_captured_container
  | Atom_get_set_rmw

let all =
  [
    Lock_guarded_unlocked;
    Lock_order_cycle;
    Lock_wait_outside_loop;
    Escape_captured_write;
    Escape_captured_container;
    Atom_get_set_rmw;
  ]

let code = function
  | Lock_guarded_unlocked -> "LOCK001"
  | Lock_order_cycle -> "LOCK002"
  | Lock_wait_outside_loop -> "LOCK003"
  | Escape_captured_write -> "ESCAPE001"
  | Escape_captured_container -> "ESCAPE002"
  | Atom_get_set_rmw -> "ATOM001"

let id = function
  | Lock_guarded_unlocked -> "guarded-field-unlocked"
  | Lock_order_cycle -> "lock-order-cycle"
  | Lock_wait_outside_loop -> "wait-outside-loop"
  | Escape_captured_write -> "escape-captured-write"
  | Escape_captured_container -> "escape-captured-container"
  | Atom_get_set_rmw -> "atomic-get-set-rmw"

let of_id s = List.find_opt (fun r -> id r = s) all

let describe = function
  | Lock_guarded_unlocked ->
    "every access to a field or binding annotated [@guarded_by m] happens \
     with the mutex m held (Mutex.protect / Mutex.lock in scope, or the \
     enclosing function is annotated [@@locked_by m])"
  | Lock_order_cycle ->
    "the lock acquisition-order graph (edges: m held while acquiring m') \
     has no cycle, so no two threads can deadlock by taking the same \
     locks in opposite orders"
  | Lock_wait_outside_loop ->
    "Condition.wait is re-armed inside a while loop that re-checks its \
     predicate: a bare wait misses spurious wakeups and signal races"
  | Escape_captured_write ->
    "a closure run on another domain (Domain.spawn / Parmap.map) never \
     writes a captured ref or mutable field without a Mutex guard, an \
     Atomic, or a [@domain_local] waiver"
  | Escape_captured_container ->
    "a closure run on another domain never mutates a captured container \
     (array, Hashtbl, Buffer, Queue, Bytes) without a Mutex guard or a \
     [@domain_local] waiver"
  | Atom_get_set_rmw ->
    "no read-modify-write is spelled Atomic.get + Atomic.set in one \
     function: the window between them loses updates — use \
     fetch_and_add, compare_and_set or exchange"

let rationale = function
  | Lock_guarded_unlocked ->
    "lib/serve determinism rests on mailbox state being mutated only \
     under its queue lock (DESIGN.md \xc2\xa713)"
  | Lock_order_cycle ->
    "Squeue/Service/Hb locks nest; a cycle would let close and a blocked \
     push deadlock the service"
  | Lock_wait_outside_loop ->
    "the watermark protocol wakes consumers with heterogeneous \
     predicates; only a re-checking loop is sound"
  | Escape_captured_write ->
    "shards and Parmap workers share the heap; an unguarded captured \
     write is a data race under OCaml 5's memory model"
  | Escape_captured_container ->
    "container internals are multi-word: racing mutation can corrupt \
     them, not just lose a value"
  | Atom_get_set_rmw ->
    "the obs gauge bug fixed in PR 6 was exactly this pattern; shard \
     load gauges are updated from several domains"
