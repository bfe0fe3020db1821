module Ptg = Mcs_ptg.Ptg
module Schedule = Mcs_sched.Schedule
module Pipeline = Mcs_sched.Pipeline
module List_mapper = Mcs_sched.List_mapper
module Allocation = Mcs_sched.Allocation
module Reference_cluster = Mcs_sched.Reference_cluster
module Malleability = Mcs_sched.Malleability
module Task = Mcs_taskmodel.Task
module Fault = Mcs_fault.Fault
module Exec_check = Mcs_check.Exec_check
module P = Mcs_platform.Platform
module Floatx = Mcs_util.Floatx
module Obs = Mcs_obs.Obs

let c_events = Obs.counter "online.events"
let c_reschedules = Obs.counter "online.reschedules"
let c_remapped = Obs.counter "online.remapped"
let c_remap_unchanged = Obs.counter "online.remap_unchanged"
let c_kills = Obs.counter "online.kills"
let c_retries = Obs.counter "online.retries"
let c_fault_events = Obs.counter "online.fault_events"
let c_release = Obs.counter "mapper.release"
let c_resizes = Obs.counter "online.resizes"

type stats = {
  events_processed : int;
  events_pushed : int;
  reschedules : int;
  remapped_tasks : int;
  kills : int;
  task_failures : int;
  fault_events : int;
  alloc_hits : int;
  alloc_rescales : int;
  alloc_misses : int;
  resizes : int;
}

type result = {
  schedules : Schedule.t list;
  betas : float array;
  completions : float array;
  responses : float array;
  executions : Exec_check.execution list;
  stats : stats;
}

(* A call that changed a session: what a restore repeats. *)
type call =
  | Submit of { ptg : Ptg.t; release : float; at : float }
  | Advance of float option
  | Set_policy of Policy.t

(* What [create] was given, and every call that changed the session
   since, newest first. Immutable: a session replaces it on each call. *)
type snapshot = {
  origin_faults : Fault.scenario option;
  origin_policy : Policy.t;
  origin_platform : P.t;
  origin_apps : (Ptg.t * float) list;
  calls : call list;
}

type session = {
  st : State.t;
  q : Event_queue.t;
  mutable policy : Policy.t;
      (** the one active policy object; swappable mid-run *)
  mutable policy_counters : Obs.counter * Obs.counter;
      (** [policy.<name>.reschedules] and [.remapped] of [policy] *)
  platform : P.t;
  faults : Fault.scenario option;
  fault_on : bool;
  emit : Log.event -> unit;
  check : (Mcs_check.Diagnostic.t list -> unit) option;
  mutable processed : int;
  mapper : List_mapper.session Lazy.t;
      (** built on the first reschedule *)
  avail : float array;
      (** per-processor availability, refilled by every reschedule and
          resize opportunity *)
  mutable history : snapshot;
}

(* Per-policy counters are interned by policy name, so two policies of
   the same name share them: an A/B swap reports how much each named
   policy did, whichever instance was live. *)
let counters_of (p : Policy.t) =
  ( Obs.counter (Printf.sprintf "policy.%s.reschedules" p.Policy.name),
    Obs.counter (Printf.sprintf "policy.%s.remapped" p.Policy.name) )

(* Trigger merging for a batch of simultaneous events: arrivals,
   failures, outages, recoveries and resizes always force a reschedule;
   departures and task finishes do per the policy's flags. The label of
   the merged batch is its strongest cause. *)
let trigger_rank = function
  | "resize" -> 6
  | "proc_down" -> 5
  | "proc_up" -> 4
  | "task_failed" -> 3
  | "arrival" -> 2
  | "departure" -> 1
  | _ -> 0

let merge_trigger cur cand =
  match cur with
  | None -> Some cand
  | Some t -> if trigger_rank cand > trigger_rank t then Some cand else cur

let may_fail s =
  match s.faults with
  | Some sc -> sc.Fault.config.Fault.task_fail_p > 0.
  | None -> false

(* Under fault injection each attempt's outcome is pre-rolled — the
   roll is a pure function of (seed, app, node, attempt), so
   re-announcing the same attempt after an unrelated reschedule rolls
   the same verdict, and the state memoises it per attempt. *)
let will_fail s app v =
  match s.faults with
  | Some sc
    when sc.Fault.config.Fault.task_fail_p > 0.
         && app.State.failures.(v)
            < s.policy.Policy.faults.Policy.max_retries
    ->
    let attempt = app.State.failures.(v) in
    if Array.length app.State.verdicts = 0 then
      app.State.verdicts <- Array.make (Array.length app.State.failures) (-1);
    let memo = app.State.verdicts.(v) in
    if memo >= 0 && memo asr 1 = attempt then memo land 1 = 1
    else begin
      let fails = Fault.roll_failure sc ~app:app.State.index ~node:v ~attempt in
      app.State.verdicts.(v) <- (2 * attempt) + Bool.to_int fails;
      fails
    end
  | Some _ | None -> false

(* A placement running at [now]: started, and finishing after it. Only
   running tasks are armed for resizes, resized or killed. *)
let running now (pl : Schedule.placement) =
  pl.Schedule.start <= now +. Floatx.eps
  && pl.Schedule.finish > now +. Floatx.eps

(* Arm the next legal resize point of running task [v] under model [m]:
   one [Resize] event at its next grid point, announced under the
   current generation so any later reschedule re-plans it. An
   opportunity is not a commitment — the trigger is re-evaluated when
   the point is reached. *)
let arm_resize s m app v (pl : Schedule.placement) =
  let at =
    Malleability.next_resize_point m ~start:pl.Schedule.start
      ~now:s.st.State.now
  in
  if at < pl.Schedule.finish -. Floatx.eps then
    Event_queue.push s.q ~time:at
      (Event_queue.Resize { app = app.State.index; node = v })

(* Announce the future of every active application under the current
   schedule generation: one finish event per still-running or
   not-yet-started real task, one departure per application, and under
   malleability the next resize point of every running real task.
   Callers open the generation first ({!Event_queue.next_generation}),
   so the queue holds no other announcement. No two announcements of a
   generation share (time, kind, app, node), so the order of the pushes
   never decides a pop. *)
let announce s =
  let state = s.st in
  let now = state.State.now in
  List.iter
    (fun app ->
      let ptg = app.State.ptg and pls = app.State.placements in
      let exit = Ptg.exit ptg in
      (* Pre-roll first: a generation in which some attempt is doomed
         to fail must not announce the departure — the app cannot
         complete on this schedule, and the failure's mandatory
         reschedule will announce the real one. Without this, a task
         failing exactly at the announced exit finish would race its
         own application's departure in the same batch. *)
      let doomed = ref false in
      if may_fail s then
        for v = 0 to Array.length pls - 1 do
          match pls.(v) with
          | Some pl
            when (not !doomed)
                 && (not (Ptg.is_virtual ptg v))
                 && pl.Schedule.finish > now ->
            doomed := will_fail s app v
          | Some _ | None -> ()
        done;
      (* A PTG with a unique sink reuses that real task as its exit
         node: it must still get its own finish/failure event (it does
         real work, records an execution attempt and can fail
         transiently) — the departure is announced in addition, and
         the queue's kind order delivers the finish first. *)
      for v = 0 to Array.length pls - 1 do
        match pls.(v) with
        | None -> ()
        | Some pl ->
          if (not (Ptg.is_virtual ptg v)) && pl.Schedule.finish > now then begin
            let kind =
              if will_fail s app v then
                Event_queue.Task_failed { app = app.State.index; node = v }
              else Event_queue.Task_finish { app = app.State.index; node = v }
            in
            Event_queue.push s.q ~time:pl.Schedule.finish kind;
            match s.policy.Policy.malleability with
            | Some m when running now pl -> arm_resize s m app v pl
            | Some _ | None -> ()
          end;
          if v = exit && not !doomed then
            Event_queue.push s.q
              ~time:(Float.max pl.Schedule.finish now)
              (Event_queue.Departure app.State.index)
      done)
    (State.active state)

let same_placement (a : Schedule.placement) (b : Schedule.placement) =
  a.Schedule.cluster = b.Schedule.cluster
  && a.Schedule.procs = b.Schedule.procs
  && Float.equal a.Schedule.start b.Schedule.start
  && Float.equal a.Schedule.finish b.Schedule.finish

(* Remapped (unpinned) placements that came out exactly as the previous
   generation planned them: the ceiling of what replaying that
   generation's decisions could save. [prior] holds each application's
   placements as they were before the reschedule pinned them. *)
let remap_unchanged now active prior =
  let n = ref 0 in
  List.iter2
    (fun app prior ->
      Array.iteri
        (fun v old ->
          match (old, app.State.placements.(v)) with
          | Some old, Some pl
            when old.Schedule.start > now +. Floatx.eps
                 && same_placement old pl ->
            incr n
          | (Some _ | None), _ -> ())
        prior)
    active prior;
  !n

(* Raise the availability of a running placement's processors to its
   finish. [avail] starts at now and the placement finishes after now,
   so a plain comparison takes the max without a NaN or a signed zero
   to weigh. *)
let occupy avail (pl : Schedule.placement) =
  let finish = pl.Schedule.finish and procs = pl.Schedule.procs in
  for k = 0 to Array.length procs - 1 do
    let p = procs.(k) in
    if finish > avail.(p) then avail.(p) <- finish
  done

(* Pin in place, in one pass over the active applications' placement
   arrays: a started placement (start ≤ now + ε) stays, every other one
   is revoked, and [s.avail] gets, per processor, the max of now and
   the finishes of the running work. Returns the number kept. The
   arrays are then the mapper's pinned input and its output. *)
let pin s active =
  let now = s.st.State.now and avail = s.avail in
  Array.fill avail 0 (Array.length avail) now;
  let frozen = ref 0 in
  List.iter
    (fun app ->
      let pls = app.State.placements in
      for v = 0 to Array.length pls - 1 do
        match pls.(v) with
        | None -> ()
        | Some pl when pl.Schedule.start <= now +. Floatx.eps ->
          incr frozen;
          if pl.Schedule.finish > now then occupy avail pl
        | Some _ -> pls.(v) <- None
      done)
    active;
  !frozen

(* The invariant analyzer's verdict on the active applications, each
   with the placements pinned going into its generation and the
   schedule that generation produced. *)
let online_check s apps =
  Mcs_check.Online_check.analyze s.platform
    {
      Mcs_check.Online_check.now = s.st.State.now;
      strategy = s.policy.Policy.strategy;
      apps =
        List.map
          (fun (app, pinned, schedule) ->
            {
              Mcs_check.Online_check.index = app.State.index;
              ptg = app.State.ptg;
              release = app.State.release;
              beta = app.State.beta;
              alloc = app.State.last_alloc;
              pinned;
              schedule;
            })
          apps;
    }

let reschedule s ~trigger =
  Obs.with_span "online.reschedule" @@ fun () ->
  let state = s.st in
  match State.active state with
  | [] -> ()
  | active when s.fault_on && not (State.any_up state) ->
    (* A blackout (no live processor) cannot remap anything: pinning
       revokes every unstarted placement, and a new generation drops
       their announcements; the recovery event will trigger the real
       reschedule. *)
    ignore (pin s active);
    Event_queue.next_generation s.q;
    announce s
  | active ->
    let ptgs = List.map (fun a -> a.State.ptg) active in
    (* A full mask schedules exactly as the fault-free engine: the
       degraded reference cluster and per-cluster caps only kick in
       while some processor is actually down. *)
    let degraded = s.fault_on && not (State.all_up state) in
    let ref_cluster =
      if degraded then
        Reference_cluster.degrade state.State.ref_cluster
          ~power:(State.up_power state)
      else state.State.ref_cluster
    in
    let up_counts = if degraded then Some (State.up_counts state) else None in
    let prepared =
      Pipeline.prepare ~ref_cluster ?up_counts
        ~caches:(List.map (fun app -> app.State.alloc_cache) active)
        ~arena:state.State.arena ~strategy:s.policy.Policy.strategy
        s.platform ptgs
    in
    List.iteri
      (fun j app ->
        app.State.beta <- prepared.Pipeline.betas.(j);
        (* The generation's reference allocation, for the mid-run audit
           of the ALLOC rules. *)
        app.State.last_alloc <-
          prepared.Pipeline.allocations.(j).Allocation.procs)
      active;
    let inputs =
      List.mapi
        (fun j app ->
          let procs = prepared.Pipeline.allocations.(j).Allocation.procs in
          let procs =
            if s.policy.Policy.faults.Policy.shrink_on_retry then
              (* Halve a retried task's allocation per transient
                 failure: smaller retries pack earlier on a degraded
                 platform. Allocations of pinned tasks are ignored by
                 the mapper, so shrinking them is inert, and at zero
                 failures this is the identity. *)
              Array.mapi
                (fun v p ->
                  let failures = app.State.failures.(v) in
                  if failures > 0 then max 1 (p asr min failures 30) else p)
                procs
            else procs
          in
          (app.State.index, app.State.ptg, procs))
        active
    in
    (* The old placements are copied only for a reader that needs them:
       the unchanged-placement count (only while tracing, so untraced
       runs pay nothing) and the checker's pinned snapshot. *)
    let prior =
      if Obs.enabled () then
        List.map (fun app -> Array.copy app.State.placements) active
      else []
    in
    let frozen = pin s active in
    let pinned =
      match s.check with
      | None -> []
      | Some _ -> List.map (fun app -> Array.copy app.State.placements) active
    in
    let release = Array.make (List.length active) state.State.now in
    let up = if degraded then Some state.State.proc_up else None in
    let task_floor =
      if s.fault_on then
        Some (Array.of_list (List.map (fun app -> app.State.retry_at) active))
      else None
    in
    (* A map that raises may leave the arrays partly filled; the engine
       cannot go on from there, and lets the exception end the run. *)
    List_mapper.map ~release ~avail:s.avail ?up ?task_floor
      (Lazy.force s.mapper) ref_cluster inputs
      ~placements:
        (Array.of_list (List.map (fun app -> app.State.placements) active));
    if Obs.enabled () then
      Obs.incr
        ~by:(remap_unchanged state.State.now active prior)
        c_remap_unchanged;
    let total =
      List.fold_left
        (fun acc app -> acc + Array.length app.State.placements)
        0 active
    in
    let remapped = total - frozen in
    (* Hand the invariant analyzer a snapshot of what this reschedule
       decided: it re-verifies the pinning, β and mapping rules and
       reports to the caller's sink. *)
    (match s.check with
    | None -> ()
    | Some f ->
      f
        (online_check s
           (List.map2
              (fun app pinned ->
                ( app,
                  pinned,
                  Schedule.make ~ptg:app.State.ptg
                    ~placements:(Array.map Option.get app.State.placements) ))
              active pinned)));
    Event_queue.next_generation s.q;
    state.State.reschedules <- state.State.reschedules + 1;
    state.State.remapped_tasks <- state.State.remapped_tasks + remapped;
    Obs.incr c_reschedules;
    Obs.incr ~by:remapped c_remapped;
    (* Per-policy attribution: an A/B swap reads these to compare how
       much work each policy object triggered. *)
    let c_policy_reschedules, c_policy_remapped = s.policy_counters in
    Obs.incr c_policy_reschedules;
    Obs.incr ~by:remapped c_policy_remapped;
    announce s;
    s.emit
      (Log.Reschedule
         {
           time = state.State.now;
           trigger;
           betas =
             List.map (fun app -> (app.State.index, app.State.beta)) active;
           remapped;
           pinned = frozen;
         })

(* End task [v]'s current segment at [at] — a failure at its finish, a
   kill or a resize: record the attempt. Returns the processors it
   releases under fault injection, 0 without a fault scenario (the
   [mapper.release] counter). *)
let close_attempt s app v pl ~at ~outcome =
  State.record_execution s.st app v pl ~finish:at ~outcome;
  if s.fault_on then Array.length pl.Schedule.procs else 0

(* Execute one resize opportunity of task [node] of application [i]
   under model [m]. The target width is decided here, at the grid point
   itself — the arrival spike that motivated planning the opportunity
   may be long gone — and clamped to what is feasible: the cluster
   processors idle at this instant (running placements hold theirs;
   merely planned ones are remapped by the mandatory post-resize
   reschedule). On a resize the current segment is closed as a
   [Resized] attempt ({!close_attempt}), the task's progress absorbs
   the segment's work, and the new segment
   starts now at the new width, charged the redistribution cost and
   priced by Amdahl at that width. Returns [true] iff a resize
   happened — the caller then forces a reschedule (successors re-price,
   the new segment is re-announced, the next opportunity is planned). A
   declined opportunity re-arms the next grid point directly, since no
   reschedule may happen in between to re-plan it. *)
let try_resize s m i node =
  let state = s.st in
  let app = state.State.apps.(i) in
  match app.State.placements.(node) with
  | Some pl
    when app.State.status = State.Active
         && (not (Ptg.is_virtual app.State.ptg node))
         && running state.State.now pl ->
    let renew () =
      arm_resize s m app node pl;
      false
    in
    let width = Array.length pl.Schedule.procs in
    let overhead = app.State.seg_overhead.(node) in
    (* Inside the previous resize's redistribution window no work has
       accrued yet; splitting there would charge twice. *)
    if state.State.now <= pl.Schedule.start +. overhead +. Floatx.eps then
      renew ()
    else begin
      let cl = P.cluster s.platform pl.Schedule.cluster in
      let task = app.State.ptg.Ptg.tasks.(node) in
      let full = Task.time task ~gflops:cl.P.gflops ~procs:width in
      let done_here =
        (state.State.now -. pl.Schedule.start -. overhead) /. full
      in
      let remaining = 1. -. app.State.progress.(node) -. done_here in
      if remaining <= Floatx.eps then renew ()
      else begin
        let base = P.first_proc s.platform pl.Schedule.cluster in
        let now = state.State.now in
        (* A processor of the cluster is idle iff no running placement
           on it finishes after now + ε. A placement's processors all
           lie in its cluster. *)
        let avail = s.avail in
        Array.fill avail base cl.P.procs now;
        List.iter
          (fun app ->
            Array.iter
              (function
                | Some (q : Schedule.placement)
                  when q.cluster = pl.Schedule.cluster
                       && q.start <= now +. Floatx.eps
                       && q.finish > now ->
                  occupy avail q
                | Some _ | None -> ())
              app.State.placements)
          (State.active state);
        let free p =
          avail.(p) <= now +. Floatx.eps
          && ((not s.fault_on) || state.State.proc_up.(p))
        in
        let nfree = ref 0 in
        for p = base to base + cl.P.procs - 1 do
          if free p then incr nfree
        done;
        let cap = width + !nfree in
        let target =
          Malleability.target_width m ~active:state.State.active_apps ~width
            ~cap
        in
        let target = max 1 (min target cap) in
        if target = width then renew ()
        else begin
          let procs =
            if target < width then begin
              (* Shrink keeps the lowest processor ids; the released
                 ones become available this instant. *)
              let sorted = Array.copy pl.Schedule.procs in
              Array.sort compare sorted;
              Array.sub sorted 0 target
            end
            else begin
              (* Grow takes the lowest idle processor ids. *)
              let procs = Array.make target 0 in
              Array.blit pl.Schedule.procs 0 procs 0 width;
              let k = ref width and p = ref base in
              while !k < target do
                if free !p then begin
                  procs.(!k) <- !p;
                  incr k
                end;
                incr p
              done;
              procs
            end
          in
          let moved = abs (target - width) in
          let cost = Malleability.resize_cost m ~moved in
          let full_new = Task.time task ~gflops:cl.P.gflops ~procs:target in
          let finish = state.State.now +. cost +. (remaining *. full_new) in
          Obs.incr c_release
            ~by:
              (close_attempt s app node pl ~at:state.State.now
                 ~outcome:Exec_check.Resized);
          app.State.progress.(node) <- app.State.progress.(node) +. done_here;
          app.State.seg_overhead.(node) <- cost;
          app.State.placements.(node) <-
            Some
              { pl with Schedule.procs; start = state.State.now; finish };
          state.State.resizes <- state.State.resizes + 1;
          Obs.incr c_resizes;
          s.emit
            (Log.Task_resized
               {
                 time = state.State.now;
                 app = i;
                 node;
                 from_width = width;
                 to_width = target;
                 moved;
                 cost;
                 finish;
               });
          true
        end
      end
    end
  | Some _ | None -> false

let placement_of s who i node =
  match s.st.State.apps.(i).State.placements.(node) with
  | Some pl -> pl
  | None ->
    invalid_arg
      (Printf.sprintf "Engine: %s event for unplaced task %d of app %d" who
         node i)

let handle s ev trigger =
  let state = s.st in
  s.processed <- s.processed + 1;
  Obs.enter "online.event";
  Obs.incr c_events;
  (match ev.Event_queue.kind with
  | Event_queue.Arrival i ->
    let app = state.State.apps.(i) in
    app.State.status <- State.Active;
    state.State.active_apps <- state.State.active_apps + 1;
    if state.State.active_apps > state.State.peak_active then
      state.State.peak_active <- state.State.active_apps;
    s.emit
      (Log.Arrival
         {
           time = ev.Event_queue.time;
           app = i;
           name = app.State.ptg.Ptg.name;
           tasks = Ptg.task_count app.State.ptg;
         });
    trigger := merge_trigger !trigger "arrival"
  | Event_queue.Task_finish { app = i; node } ->
    let app = state.State.apps.(i) in
    State.record_execution state app node (placement_of s "finish" i node)
      ~finish:ev.Event_queue.time ~outcome:Exec_check.Completed;
    s.emit (Log.Task_finish { time = ev.Event_queue.time; app = i; node });
    if s.policy.Policy.reschedule_on_task_finish then
      trigger := merge_trigger !trigger "task_finish"
  | Event_queue.Task_failed { app = i; node } ->
    Obs.enter "online.fault";
    let app = state.State.apps.(i) in
    let pl = placement_of s "failure" i node in
    app.State.failures.(node) <- app.State.failures.(node) + 1;
    state.State.task_failures <- state.State.task_failures + 1;
    Obs.incr c_retries;
    (* The attempt occupied its processors to the end (it fails at its
       finish): it is recorded whole, and the retry is mapped afresh. *)
    ignore
      (close_attempt s app node pl ~at:ev.Event_queue.time
         ~outcome:Exec_check.Failed);
    app.State.placements.(node) <- None;
    (* A retry restarts the task from scratch: resize progress of the
       failed attempt is lost with it. *)
    app.State.progress.(node) <- 0.;
    app.State.seg_overhead.(node) <- 0.;
    (* Descendants scheduled to start at this very instant were about
       to consume the failed output: revoke them before the pinning
       boundary (start ≤ now) freezes them into the next generation.
       Anything strictly later is remapped by the reschedule anyway. *)
    let reach = Mcs_dag.Dag.reachable_from app.State.ptg.Ptg.dag node in
    Array.iteri
      (fun v plv ->
        match plv with
        | Some plv
          when v <> node && reach.(v)
               && plv.Schedule.start >= ev.Event_queue.time -. Floatx.eps ->
          app.State.placements.(v) <- None
        | Some _ | None -> ())
      app.State.placements;
    let k = app.State.failures.(node) in
    app.State.retry_at.(node) <-
      ev.Event_queue.time
      +. Policy.retry_delay s.policy.Policy.faults ~failures:k;
    s.emit
      (Log.Task_failed
         { time = ev.Event_queue.time; app = i; node; failures = k });
    Obs.leave ();
    trigger := merge_trigger !trigger "task_failed"
  | Event_queue.Proc_down procs ->
    Obs.enter "online.fault";
    state.State.fault_events <- state.State.fault_events + 1;
    Obs.incr c_fault_events;
    Array.iter (fun p -> state.State.proc_up.(p) <- false) procs;
    s.emit (Log.Proc_down { time = ev.Event_queue.time; procs });
    Array.iter
      (fun app ->
        if app.State.status = State.Active then
          Array.iteri
            (fun v pl ->
              match pl with
              | Some pl
                when (not (Ptg.is_virtual app.State.ptg v))
                     && running state.State.now pl
                     && Array.exists
                          (fun p -> not state.State.proc_up.(p))
                          pl.Schedule.procs ->
                state.State.kills <- state.State.kills + 1;
                Obs.incr c_kills;
                Obs.incr c_release
                  ~by:
                    (close_attempt s app v pl ~at:ev.Event_queue.time
                       ~outcome:Exec_check.Killed);
                app.State.placements.(v) <- None;
                app.State.progress.(v) <- 0.;
                app.State.seg_overhead.(v) <- 0.;
                s.emit
                  (Log.Task_killed
                     {
                       time = ev.Event_queue.time;
                       app = app.State.index;
                       node = v;
                       elapsed = ev.Event_queue.time -. pl.Schedule.start;
                     })
              | Some _ | None -> ())
            app.State.placements)
      state.State.apps;
    Obs.leave ();
    trigger := merge_trigger !trigger "proc_down"
  | Event_queue.Proc_up procs ->
    Obs.enter "online.fault";
    state.State.fault_events <- state.State.fault_events + 1;
    Obs.incr c_fault_events;
    Array.iter (fun p -> state.State.proc_up.(p) <- true) procs;
    s.emit (Log.Proc_up { time = ev.Event_queue.time; procs });
    Obs.leave ();
    trigger := merge_trigger !trigger "proc_up"
  | Event_queue.Departure i ->
    let app = state.State.apps.(i) in
    if Array.exists Option.is_none app.State.placements then
      invalid_arg
        (Printf.sprintf "Engine: departure of app %d with unplaced tasks" i);
    app.State.status <- State.Completed;
    app.State.completion <- ev.Event_queue.time;
    (* The application will never be allocated or announced again:
       free its cached trajectories (the lifetime statistics survive
       the clear) and its memoised failure verdicts. *)
    Allocation.cache_release app.State.alloc_cache;
    app.State.verdicts <- [||];
    if Lazy.is_val s.mapper then List_mapper.forget (Lazy.force s.mapper) i;
    state.State.active_apps <- state.State.active_apps - 1;
    state.State.completed_apps <- state.State.completed_apps + 1;
    s.emit
      (Log.Departure
         {
           time = ev.Event_queue.time;
           app = i;
           response = ev.Event_queue.time -. app.State.release;
         });
    if s.policy.Policy.reschedule_on_departure then
      trigger := merge_trigger !trigger "departure"
  | Event_queue.Resize { app = i; node } -> (
    (* Never [None]: only a malleable policy arms resize points, and a
       policy swap always reschedules, whose new generation drops them
       (with no active application, no task runs and none is armed). *)
    match s.policy.Policy.malleability with
    | None -> ()
    | Some m ->
      Obs.enter "online.resize";
      if try_resize s m i node then
        (* Mandatory, policy-independent: the resized segment must be
           re-announced and its successors re-priced, or the stale
           finish events of the old width would fire. *)
        trigger := merge_trigger !trigger "resize";
      Obs.leave ()));
  Obs.leave ()

let create ?log ?check ?faults ~policy platform apps =
  (match faults with Some sc -> Fault.validate sc.Fault.config | None -> ());
  let s =
    {
      st = State.create platform apps;
      q = Event_queue.create ();
      policy;
      policy_counters = counters_of policy;
      platform;
      faults;
      fault_on = faults <> None;
      emit = Option.value log ~default:ignore;
      check;
      processed = 0;
      mapper = lazy (List_mapper.session platform);
      avail = Array.make (P.total_procs platform) 0.;
      history =
        {
          origin_faults = faults;
          origin_policy = policy;
          origin_platform = platform;
          origin_apps = apps;
          calls = [];
        };
    }
  in
  Array.iter
    (fun app ->
      Event_queue.push s.q ~time:app.State.release
        (Event_queue.Arrival app.State.index))
    s.st.State.apps;
  (match faults with
  | None -> ()
  | Some sc ->
    List.iter
      (fun o ->
        Event_queue.push s.q ~time:o.Fault.down_at
          (Event_queue.Proc_down o.Fault.procs);
        Event_queue.push s.q ~time:o.Fault.up_at
          (Event_queue.Proc_up o.Fault.procs))
      sc.Fault.outages);
  s

(* With no call between two advances, how far the second gets depends
   only on the queue, so they share one entry: the larger bound, or
   none if either had none. *)
let record s call =
  let h = s.history in
  let calls =
    match (call, h.calls) with
    | Advance (Some b), Advance (Some b0) :: rest ->
      Advance (Some (Float.max_num b0 b)) :: rest
    | Advance _, Advance _ :: rest -> Advance None :: rest
    | _ -> call :: h.calls
  in
  s.history <- { h with calls }

let submit s ptg ~release ~at =
  if not (Float.is_finite at) || at < release then
    invalid_arg "Engine.submit: admission before release (or non-finite)";
  if at < s.st.State.now then
    invalid_arg "Engine.submit: admission in the processed past";
  let app = State.add_app s.st ptg ~release in
  Event_queue.push s.q ~time:at (Event_queue.Arrival app.State.index);
  record s (Submit { ptg; release; at });
  app.State.index

let now s = s.st.State.now
let pending_events s = Event_queue.length s.q
let active_count s = s.st.State.active_apps
let peak_active s = s.st.State.peak_active
let in_service s = Array.length s.st.State.apps - s.st.State.completed_apps
let policy s = s.policy

let alloc_cache_stats s = State.alloc_cache_stats s.st

(* [result] audits the whole execution log against the final policy's
   malleability model and retry bound, so a swap may not change
   either. *)
let set_policy s p =
  if
    p.Policy.malleability <> s.policy.Policy.malleability
    || p.Policy.faults.Policy.max_retries
       <> s.policy.Policy.faults.Policy.max_retries
  then
    invalid_arg
      "Engine.set_policy: the malleability model and retry bound are fixed";
  s.policy <- p;
  s.policy_counters <- counters_of p;
  record s (Set_policy p);
  reschedule s ~trigger:"policy_swap"

let audit s =
  let state = s.st in
  match State.active state with
  | [] -> []
  | active ->
    let auditable app =
      Array.length app.State.last_alloc > 0
      && Array.for_all Option.is_some app.State.placements
    in
    (* Mid-blackout (or before the first reschedule) some active app
       has revoked placements: there is no generation to audit, and
       auditing a subset would make the β-sum rules fire spuriously. *)
    if not (List.for_all auditable active) then []
    else
      online_check s
        (List.map
           (fun app ->
             ( app,
               State.pinned_of state app,
               Schedule.make ~ptg:app.State.ptg
                 ~placements:(Array.map Option.get app.State.placements) ))
           active)

let advance ?upto s =
  Obs.with_span "online.run" @@ fun () ->
  record s (Advance upto);
  let state = s.st in
  let bounded t = match upto with None -> true | Some b -> t < b in
  let rec loop () =
    match Event_queue.peek s.q with
    | None -> ()
    | Some ev when not (bounded ev.Event_queue.time) -> ()
    | Some _ ->
      let ev = Option.get (Event_queue.pop s.q) in
      state.State.now <- ev.Event_queue.time;
      let trigger = ref None in
      handle s ev trigger;
      (* Drain every simultaneous event before rescheduling once, so β
         is recomputed over the post-batch set of active applications
         (the queue orders finishes before failures, departures,
         arrivals, outages and recoveries at equal times). *)
      let rec drain_batch () =
        match Event_queue.peek s.q with
        | Some e when e.Event_queue.time <= state.State.now +. Floatx.eps ->
          handle s (Option.get (Event_queue.pop s.q)) trigger;
          drain_batch ()
        | Some _ | None -> ()
      in
      drain_batch ();
      (match !trigger with
      | Some trigger -> reschedule s ~trigger
      | None -> ());
      loop ()
  in
  loop ()

let snapshot s = s.history

(* The session again from its origin, then its calls oldest first,
   with no sinks attached: the engine is deterministic, so the replay
   rebuilds every structure the calls left behind, and it records the
   calls again. *)
let restore ?log ?check snap =
  let s =
    create ?faults:snap.origin_faults ~policy:snap.origin_policy
      snap.origin_platform snap.origin_apps
  in
  List.iter
    (function
      | Submit { ptg; release; at } -> ignore (submit s ptg ~release ~at : int)
      | Advance upto -> advance ?upto s
      | Set_policy p -> set_policy s p)
    (List.rev snap.calls);
  { s with emit = Option.value log ~default:ignore; check }

type speculation = {
  adopted : bool;
  baseline_makespan : float;
  candidate_makespan : float;
}

let makespan st =
  Array.fold_left
    (fun acc app ->
      if Float.is_nan app.State.completion then acc
      else Float.max acc app.State.completion)
    0. st.State.apps

(* Speculative A/B: clone twice, race the incumbent policy against the
   candidate over everything already queued, and adopt the candidate on
   the live session only if it strictly improves the makespan. The
   clones are silent (no log, no checker) and fully isolated, so the
   speculation itself never perturbs the live run. *)
let what_if s candidate =
  Obs.with_span "online.what_if" @@ fun () ->
  let baseline = restore (snapshot s) in
  advance baseline;
  let trial = restore (snapshot s) in
  set_policy trial candidate;
  advance trial;
  let baseline_makespan = makespan baseline.st in
  let candidate_makespan = makespan trial.st in
  let adopted = candidate_makespan +. Floatx.eps < baseline_makespan in
  if adopted then set_policy s candidate;
  { adopted; baseline_makespan; candidate_makespan }

let result s =
  let state = s.st in
  let executions = List.rev state.State.executions in
  let apps = state.State.apps in
  (* Post-mortem audit of every recorded attempt against the outage
     intervals, the retry budget and the malleability model
     (FAULT001-003, MAL001-003), in every mode. *)
  Option.iter
    (fun f ->
      let procs = P.total_procs s.platform in
      f
        (Exec_check.check ~malleability:s.policy.Policy.malleability
           ~max_retries:s.policy.Policy.faults.Policy.max_retries
           ~down:
             (match s.faults with
             | Some sc -> Fault.down_intervals sc ~procs
             | None -> Array.make procs [])
           s.platform
           ~ptgs:(Array.map (fun app -> app.State.ptg) apps)
           executions))
    s.check;
  let alloc_hits, alloc_rescales, alloc_misses =
    State.alloc_cache_stats state
  in
  {
    schedules = State.schedules state;
    betas = Array.map (fun app -> app.State.beta) apps;
    completions = Array.map (fun app -> app.State.completion) apps;
    responses =
      Array.map (fun app -> app.State.completion -. app.State.release) apps;
    executions;
    stats =
      {
        events_processed = s.processed;
        events_pushed = Event_queue.pushed s.q;
        reschedules = state.State.reschedules;
        remapped_tasks = state.State.remapped_tasks;
        kills = state.State.kills;
        task_failures = state.State.task_failures;
        fault_events = state.State.fault_events;
        alloc_hits;
        alloc_rescales;
        alloc_misses;
        resizes = state.State.resizes;
      };
  }

let run ?log ?check ?faults ~policy platform apps =
  if apps = [] then invalid_arg "State.create: no applications";
  let s = create ?log ?check ?faults ~policy platform apps in
  advance s;
  result s
