module Ptg = Mcs_ptg.Ptg
module Engine = Mcs_online.Engine
module Policy = Mcs_online.Policy
module Fault = Mcs_fault.Fault
module Obs = Mcs_obs.Obs

let c_submitted = Obs.counter "serve.submitted"
let c_admitted = Obs.counter "serve.admitted"
let c_rejected = Obs.counter "serve.rejected"

type mode = Inline | Domains

type config = {
  shards : int;
  mode : mode;
  router : Router.choice;
  admission : Admission.t;
  policy : Policy.t;
  kill : (int * int) option;
  capture_logs : bool;
  check : bool;
  faults : Fault.config option;
  fault_seed : int;
}

let default_config =
  {
    shards = 4;
    mode = Domains;
    router = Router.Least_work;
    admission = Admission.default;
    policy =
      Policy.of_name "static"
        ~base:
          (Policy.make
             (Mcs_sched.Strategy.Weighted (Mcs_sched.Strategy.Work, 0.7)));
    kill = None;
    capture_logs = false;
    check = false;
    faults = None;
    fault_seed = 0;
  }

type outcome = Admitted of int | Rejected

type report = {
  shards : Shard.report array;
  submitted : int;
  admitted : int;
  rejected : int;
  handoffs : int;
  peak_active : int;
  responses : float array;
  events : int;
  reschedules : int;
  remapped : int;
  restores : int;
  violations : int;
  wall_s : float;
}

type t = {
  config : config;
  shards : Shard.t array;
  router : Router.t;
  domains : unit Domain.t option array;
      (** one slot per shard; [None] between a join and a respawn *)
  lock : Mutex.t;
      (** guards the four counters below; never held across a
          (possibly blocking) queue push, so a blocked submitter cannot
          deadlock a concurrent close *)
  mutable submitted : int; [@guarded_by lock]
  mutable rejected : int; [@guarded_by lock]
  mutable last_release : float; [@guarded_by lock]
  mutable closed : bool; [@guarded_by lock]
  hb : Hb.sync;
  hb_state : Hb.loc;
  started_at : float;
}

let create config platform =
  Admission.validate config.admission;
  (match config.faults with Some fc -> Fault.validate fc | None -> ());
  (match config.kill with
  | Some (k, n) ->
    if k < 0 || k >= config.shards || n < 0 then
      invalid_arg "Service.create: ill-formed kill spec";
    if config.mode = Inline then
      invalid_arg "Service.create: a kill drill needs Domains mode"
  | None -> ());
  let parts = Shard.partition platform ~shards:config.shards in
  let shards =
    Array.mapi
      (fun k (sub, clusters) ->
        let faults =
          Option.map
            (fun fc -> Fault.generate ~seed:(config.fault_seed + k) sub fc)
            config.faults
        in
        let crash_after =
          match config.kill with
          | Some (kk, n) when kk = k -> Some n
          | _ -> None
        in
        Shard.make ~index:k ~platform:sub ~clusters
          ~admission:config.admission ~policy:config.policy ~crash_after
          ~capture_log:config.capture_logs ~check:config.check ~faults)
      parts
  in
  Array.iter (fun sh -> Shard.set_peers sh shards) shards;
  let router =
    Router.create
      ~load:(fun k -> Shard.load shards.(k))
      config.router ~shards:config.shards
  in
  let domains =
    match config.mode with
    | Inline -> [||]
    | Domains ->
      Array.map
        (fun sh -> Some (Domain.spawn (fun () -> Shard.serve_loop sh)))
        shards
  in
  {
    config;
    shards;
    router;
    domains;
    lock = Mutex.create ();
    submitted = 0;
    rejected = 0;
    last_release = 0.;
    closed = false;
    hb = Hb.sync "service.lock";
    hb_state = Hb.loc "service.state";
    started_at = Unix.gettimeofday ();
  }

(* Detect-and-heal: any shard whose serving loop died at its scripted
   crash point is joined (making its last state fully visible), rebuilt
   from its creation-time snapshot + journal, and its loop respawned. Called at the
   top of every [submit] — before any push, so a Block-mode submitter
   never backpressures against a dead consumer — and at [close]. Under
   the service lock: the flag is only ever cleared here, so concurrent
   healers cannot double-join a domain. *)
let heal t =
  match t.config.mode with
  | Inline -> ()
  | Domains ->
    if Array.exists Shard.crashed t.shards then
      Mutex.protect t.lock @@ fun () ->
      Array.iteri
        (fun k sh ->
          if Shard.crashed sh then begin
            (match t.domains.(k) with
            | Some d ->
              Domain.join d;
              t.domains.(k) <- None
            | None -> ());
            Hb.acquire (Shard.hb_done sh);
            Shard.restore_crashed sh;
            t.domains.(k) <- Some (Domain.spawn (fun () -> Shard.serve_loop sh))
          end)
        t.shards

(* Short critical sections only: validate-and-count, then push with
   the lock released (the push may block on backpressure, and a
   submitter blocked under the service lock would deadlock close). *)
let submit t ptg ~release =
  heal t;
  let global =
    Mutex.protect t.lock @@ fun () ->
    Hb.region t.hb @@ fun () ->
    Hb.read t.hb_state;
    if t.closed then invalid_arg "Service.submit: closed";
    if (not (Float.is_finite release)) || release < t.last_release then
      invalid_arg "Service.submit: releases must be nondecreasing";
    Hb.write t.hb_state;
    t.last_release <- release;
    let global = t.submitted in
    t.submitted <- t.submitted + 1;
    global
  in
  Obs.incr c_submitted;
  let k = Router.route t.router ~work:(Ptg.work ptg) in
  let sh = t.shards.(k) in
  let msg = { Shard.global; ptg; release; handoff = false } in
  let block = t.config.admission.Admission.on_full = Admission.Block in
  let pushed =
    match t.config.mode with
    | Domains -> Squeue.push (Shard.queue sh) ~block msg
    | Inline -> (
      match Squeue.push (Shard.queue sh) ~block:false msg with
      | Squeue.Accepted -> Squeue.Accepted
      | Squeue.Full when block ->
        (* Backpressure without a consumer domain: make the progress
           ourselves, then the push must succeed. *)
        Shard.pickup sh;
        Squeue.push (Shard.queue sh) ~block:false msg
      | (Squeue.Full | Squeue.Closed) as r -> r)
  in
  (* The watermark may advance on every submission — even a rejected
     one proves all future releases are ≥ [release]. *)
  Array.iter
    (fun sh -> Squeue.advance_watermark (Shard.queue sh) release)
    t.shards;
  match pushed with
  | Squeue.Accepted ->
    Obs.incr c_admitted;
    Admitted k
  | Squeue.Full ->
    (Mutex.protect t.lock @@ fun () ->
     Hb.region t.hb @@ fun () ->
     Hb.write t.hb_state;
     t.rejected <- t.rejected + 1);
    Obs.incr c_rejected;
    Rejected
  | Squeue.Closed -> invalid_arg "Service.submit: closed"

let build_report t =
  let submitted, rejected =
    Mutex.protect t.lock @@ fun () ->
    Hb.region t.hb @@ fun () ->
    Hb.read t.hb_state;
    (t.submitted, t.rejected)
  in
  let reports = Array.map Shard.report t.shards in
  let responses = Array.make submitted Float.nan in
  Array.iter
    (fun r ->
      Array.iteri
        (fun local global ->
          responses.(global) <- r.Shard.engine.Engine.responses.(local))
        r.Shard.global_ids)
    reports;
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 reports in
  {
    shards = reports;
    submitted;
    admitted = submitted - rejected;
    rejected;
    handoffs = sum (fun r -> r.Shard.handoffs_out);
    peak_active = sum (fun r -> r.Shard.peak_active);
    responses;
    events = sum (fun r -> r.Shard.engine.Engine.stats.Engine.events_processed);
    reschedules = sum (fun r -> r.Shard.engine.Engine.stats.Engine.reschedules);
    remapped = sum (fun r -> r.Shard.engine.Engine.stats.Engine.remapped_tasks);
    restores = sum (fun r -> r.Shard.restores);
    violations = sum (fun r -> r.Shard.violations);
    wall_s = Unix.gettimeofday () -. t.started_at;
  }

let close t =
  (Mutex.protect t.lock @@ fun () ->
   Hb.region t.hb @@ fun () ->
   Hb.read t.hb_state;
   if t.closed then invalid_arg "Service.close: already closed";
   Hb.write t.hb_state;
   t.closed <- true);
  (* A crash after the last submission is only detected here: heal
     first, so the respawned loop serves the close-time drain. *)
  heal t;
  (match t.config.mode with
  | Domains ->
    Array.iter (fun sh -> Squeue.close (Shard.queue sh)) t.shards;
    Array.iter (Option.iter Domain.join) t.domains;
    (* The join edge: each shard released [hb_done] at the end of its
       loop; acquiring after the join tells the tracker everything the
       shard did is visible to the sweep below. *)
    Array.iter (fun sh -> Hb.acquire (Shard.hb_done sh)) t.shards;
    (* A loop that died between the pre-close heal and the join exited
       without finishing: restore it here — no respawn needed, the
       close-time sweep below drains its mailbox and runs it to
       quiescence on this domain. *)
    Array.iter
      (fun sh -> if Shard.crashed sh then Shard.restore_crashed sh)
      t.shards
  | Inline -> Array.iter (fun sh -> Squeue.close (Shard.queue sh)) t.shards);
  (* Sweep to fixpoint: inline-mode leftovers, plus hand-offs that
     landed after their target's domain exited. Shedding off, so every
     pass strictly shrinks the undrained population. *)
  let rec sweep () =
    let moved = ref false in
    Array.iter
      (fun sh ->
        let b = Squeue.drain (Shard.queue sh) in
        if b.Squeue.msgs <> [] then begin
          moved := true;
          Shard.inject sh ~allow_shed:false b.Squeue.msgs
        end)
      t.shards;
    Array.iter Shard.finish t.shards;
    if !moved then sweep ()
  in
  sweep ();
  build_report t

let run_stream ?(rate = 0.) config platform apps =
  (* NaN fails the comparison, so it is rejected too. *)
  if not (rate >= 0.) then
    invalid_arg (Printf.sprintf "Service.run_stream: rate = %g" rate);
  Obs.with_span "serve.run" @@ fun () ->
  let t = create config platform in
  List.iter
    (fun (ptg, release) ->
      if rate > 0. then Unix.sleepf (1. /. rate);
      ignore (submit t ptg ~release))
    apps;
  close t

let merged_log (report : report) =
  Stats.merge
    (Array.to_list
       (Array.map
          (fun r ->
            let global local = r.Shard.global_ids.(local) in
            ( r.Shard.shard,
              List.map (Stats.relabel global) r.Shard.log ))
          report.shards))
