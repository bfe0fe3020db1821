module P = Mcs_platform.Platform
module Ptg = Mcs_ptg.Ptg
module Engine = Mcs_online.Engine
module Log = Mcs_online.Log
module Obs = Mcs_obs.Obs

let c_handoffs = Obs.counter "serve.handoffs"
let c_injected = Obs.counter "serve.injected"
let c_queue_peak = Obs.counter "serve.queue_peak"
let c_active_peak = Obs.counter "serve.active_peak"

let c_restores = Obs.counter "serve.restores"

type msg = { global : int; ptg : Ptg.t; release : float; handoff : bool }

(* One journaled injection: the message plus the admission instant the
   engine actually used. Replay submits at the {e recorded} instant —
   recomputing [max (quantize release) now] on the restored session
   would admit hand-offs earlier than the original run did. *)
type jentry = { jn_msg : msg; jn_at : float }

type t = {
  index : int;
  clusters : int array;
  queue : msg Squeue.t;
  admission : Admission.t;
  mutable session : Engine.session;
  log_cb : Log.event -> unit;  (** re-wired into a restored session *)
  check_cb : (Mcs_check.Diagnostic.t list -> unit) option;
  mutable peers : t array;
  load_gauge : float Atomic.t;
  works : float array ref;  (** per local app; read by the log callback *)
  mutable globals : int array;
  log_rev : Log.event list ref;
  violations : int ref;
  diags_rev : Mcs_check.Diagnostic.t list ref;
  mutable last_wm : float;
  mutable injected : int;
  mutable handoffs_in : int;
  mutable handoffs_out : int;
  origin : Engine.snapshot;  (** the fresh session *)
  mutable journal : jentry list;
      (** every injection, reversed, while a crash is scripted *)
  mutable crash_after : int option;
  crashed : bool Atomic.t;  (** published by the dying serving loop *)
  mutable restores : int;
  hb_done : Hb.sync;  (** released by [finish]; the Domain.join edge *)
  hb_boot : Hb.sync;  (** released before every (re)spawn of the loop *)
  hb_state : Hb.loc;  (** the owner-domain-confined mutable fields *)
}

(* Greedy balanced partition: heaviest cluster onto the lightest shard.
   Deterministic (ties by index), so every run shards identically. *)
let partition platform ~shards =
  let n = P.cluster_count platform in
  if shards < 1 then invalid_arg "Shard.partition: shards < 1";
  if shards > n then
    invalid_arg
      (Printf.sprintf "Shard.partition: %d shards for %d clusters" shards n);
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      match Float.compare (P.cluster_power platform b) (P.cluster_power platform a) with
      | 0 -> compare a b
      | c -> c)
    order;
  let bins = Array.make shards [] in
  let binpow = Array.make shards 0. in
  Array.iter
    (fun ci ->
      let k = ref 0 in
      for j = 1 to shards - 1 do
        if binpow.(j) < binpow.(!k) then k := j
      done;
      bins.(!k) <- ci :: bins.(!k);
      binpow.(!k) <- binpow.(!k) +. P.cluster_power platform ci)
    order;
  Array.mapi
    (fun k members ->
      let clusters = Array.of_list (List.sort compare members) in
      (* Renumber switches compactly in first-appearance order: the
         same-switch relation is preserved, and on the stock platforms
         (switch ids nondecreasing in cluster order) this is the
         identity, which the 1-shard equivalence test relies on. *)
      let renum = Hashtbl.create 8 in
      let sub_clusters =
        Array.to_list
          (Array.map
             (fun ci ->
               let c = P.cluster platform ci in
               let sw =
                 match Hashtbl.find_opt renum c.P.switch with
                 | Some s -> s
                 | None ->
                   let s = Hashtbl.length renum in
                   Hashtbl.add renum c.P.switch s;
                   s
               in
               { c with P.switch = sw })
             clusters)
      in
      let sub =
        P.make
          ~name:(Printf.sprintf "%s/%d" (P.name platform) k)
          ~nic_bandwidth:(P.nic_bandwidth platform)
          ~link_bandwidth:(P.link_bandwidth platform)
          ~backbone_bandwidth:(P.backbone_bandwidth platform)
          ~latency:(P.latency platform) sub_clusters
      in
      (sub, clusters))
    bins

let make ~index ~platform ~clusters ~admission ~policy ~crash_after
    ~capture_log ~check ~faults =
  let load_gauge = Atomic.make 0. in
  let works = ref [||] in
  let log_rev = ref [] in
  let log ev =
    (match ev with
    | Log.Departure { app; _ } ->
      Stats.gauge_sub_floor load_gauge !works.(app)
    | _ -> ());
    if capture_log then log_rev := ev :: !log_rev
  in
  let violations = ref 0 in
  let diags_rev = ref [] in
  let check_sink =
    if not check then None
    else
      Some
        (fun diags ->
          match Mcs_check.Diagnostic.errors diags with
          | [] -> ()
          | errs ->
            violations := !violations + List.length errs;
            List.iter
              (fun d ->
                if List.length !diags_rev < 16 then
                  diags_rev := d :: !diags_rev)
              errs)
  in
  let session =
    Engine.create ~log ?check:check_sink ?faults ~policy platform []
  in
  let t =
    {
      index;
      clusters;
      queue = Squeue.create ~capacity:admission.Admission.capacity;
      admission;
      session;
      log_cb = log;
      check_cb = check_sink;
      peers = [||];
      load_gauge;
      works;
      globals = [||];
      log_rev;
      violations;
      diags_rev;
      last_wm = 0.;
      injected = 0;
      handoffs_in = 0;
      handoffs_out = 0;
      origin = Engine.snapshot session;
      journal = [];
      crash_after;
      crashed = Atomic.make false;
      restores = 0;
      hb_done = Hb.sync "shard.done";
      hb_boot = Hb.sync "shard.boot";
      hb_state = Hb.loc "shard.state";
    }
  in
  (* The creating domain publishes the initial state to whichever
     domain first runs the serving loop. *)
  Hb.release t.hb_boot;
  t

let set_peers t peers = t.peers <- peers
let queue t = t.queue
let hb_done t = t.hb_done
let load t = Atomic.get t.load_gauge

let least_loaded_peer t =
  let best = ref (-1) and bestv = ref infinity in
  Array.iteri
    (fun k p ->
      if k <> t.index then begin
        let v = Atomic.get p.load_gauge in
        if v < !bestv then begin
          best := k;
          bestv := v
        end
      end)
    t.peers;
  !best

let inject_one t m =
  if m.handoff then t.handoffs_in <- t.handoffs_in + 1;
  let at =
    Float.max (Admission.quantize t.admission m.release)
      (Engine.now t.session)
  in
  ignore (Engine.submit t.session m.ptg ~release:m.release ~at : int);
  if t.crash_after <> None then
    t.journal <- { jn_msg = m; jn_at = at } :: t.journal;
  t.injected <- t.injected + 1;
  Obs.incr c_injected;
  (m.global, Ptg.work m.ptg)

let inject t ~allow_shed msgs =
  match msgs with
  | [] -> ()
  | msgs ->
    Obs.with_span "serve.pickup" @@ fun () ->
    Hb.write t.hb_state;
    let kept = ref [] in
    List.iter
      (fun m ->
        let shed =
          allow_shed && (not m.handoff)
          && (match t.admission.Admission.shed_above with
             | Some lim -> Engine.in_service t.session >= lim
             | None -> false)
          && Array.length t.peers > 1
        in
        if shed then begin
          let k = least_loaded_peer t in
          Squeue.push_unbounded t.peers.(k).queue { m with handoff = true };
          t.handoffs_out <- t.handoffs_out + 1;
          Obs.incr c_handoffs
        end
        else kept := inject_one t m :: !kept)
      msgs;
    let kept = List.rev !kept in
    let added_globals = Array.of_list (List.map fst kept) in
    let added_works = Array.of_list (List.map snd kept) in
    (* Batch-append the local→global map and the work table before the
       next advance: the departure callback indexes [works]. *)
    t.globals <- Array.append t.globals added_globals;
    t.works := Array.append !(t.works) added_works;
    Stats.gauge_add t.load_gauge (Array.fold_left ( +. ) 0. added_works)

let sample t =
  Obs.record_max c_queue_peak (Squeue.peak t.queue);
  Obs.record_max c_active_peak (Engine.peak_active t.session)

let step t ~upto =
  Obs.with_span "serve.step" @@ fun () -> Engine.advance ~upto t.session

let finish t =
  (Obs.with_span "serve.step" @@ fun () -> Engine.advance t.session);
  sample t;
  Hb.write t.hb_state;
  (* Publish everything this shard ever did; [Service.close] acquires
     after [Domain.join], modelling the join's visibility guarantee. *)
  Hb.release t.hb_done

let pickup t =
  let b = Squeue.drain t.queue in
  inject t ~allow_shed:(not b.Squeue.closed) b.Squeue.msgs;
  if b.Squeue.closed then finish t
  else begin
    t.last_wm <- b.Squeue.watermark;
    step t ~upto:b.Squeue.watermark;
    sample t
  end

let crash_now t =
  match t.crash_after with Some n -> t.injected >= n | None -> false

(* Scripted crash (test/CI facility): the domain dies right here,
   abandoning everything since the shard was made. The mailbox is
   untouched — undrained messages survive the crash and are served by
   the restored loop (or the close-time sweep). [hb_done] carries this
   domain's clock out (the healer joins the domain and acquires it
   before touching the wreckage); the flag is published last. *)
let die t =
  Hb.release t.hb_done;
  Atomic.set t.crashed true

let rec serve_loop t =
  if crash_now t then die t
  else begin
    let b = Squeue.wait_batch t.queue ~seen:t.last_wm in
    inject t ~allow_shed:(not b.Squeue.closed) b.Squeue.msgs;
    if b.Squeue.closed then
      (* The threshold may only be crossed by this very batch (a fast
         submitter can land the whole stream in one closed batch) —
         check again, or the scripted crash would never fire. *)
      if crash_now t then die t else finish t
    else begin
      t.last_wm <- b.Squeue.watermark;
      step t ~upto:b.Squeue.watermark;
      sample t;
      serve_loop t
    end
  end

let serve_loop t =
  Hb.acquire t.hb_boot;
  serve_loop t

let crashed t = Atomic.get t.crashed

(* Runs on the service's domain, strictly after the crashed domain was
   joined. Rebuilds the shard as it was made and replays the journal:
   every journaled message is re-submitted at its {e recorded}
   admission instant, which is ≥ every watermark the dead loop ever
   advanced to (the watermark protocol guarantees [at ≥ wm] at push
   time), so inject-all-then-advance reproduces the original
   interleaving of injections and steps event for event. The log and
   violation sinks restart empty, so re-advancing re-emits the whole
   log. [handoffs_out] stays: the messages shed before the crash sit
   in peers' mailboxes, and the journal holds only what was kept. *)
let restore_crashed t =
  if t.crash_after = None then
    invalid_arg "Shard.restore_crashed: no crash was scripted";
  Hb.write t.hb_state;
  let journal = List.rev t.journal in
  t.session <- Engine.restore ~log:t.log_cb ?check:t.check_cb t.origin;
  List.iter
    (fun j ->
      ignore
        (Engine.submit t.session j.jn_msg.ptg ~release:j.jn_msg.release
           ~at:j.jn_at
          : int))
    journal;
  t.globals <- Array.of_list (List.map (fun j -> j.jn_msg.global) journal);
  t.works := Array.of_list (List.map (fun j -> Ptg.work j.jn_msg.ptg) journal);
  t.log_rev := [];
  t.violations := 0;
  t.diags_rev := [];
  t.injected <- List.length journal;
  t.handoffs_in <- List.length (List.filter (fun j -> j.jn_msg.handoff) journal);
  t.last_wm <- 0.;
  (* Nothing has departed yet, so everything injected is in flight:
     the dead domain's last published load reflects departures the
     restore rolled back. *)
  Atomic.set t.load_gauge (Array.fold_left ( +. ) 0. !(t.works));
  t.journal <- [];
  t.crash_after <- None;
  t.restores <- t.restores + 1;
  Obs.incr c_restores;
  Atomic.set t.crashed false;
  (* Publish the rebuilt state to the respawned serving loop. *)
  Hb.release t.hb_boot

type report = {
  shard : int;
  clusters : int array;
  engine : Engine.result;
  global_ids : int array;
  injected : int;
  handoffs_in : int;
  handoffs_out : int;
  queue_peak : int;
  peak_active : int;
  restores : int;
  violations : int;
  diagnostics : Mcs_check.Diagnostic.t list;
  log : Log.event list;
}

let report t =
  sample t;
  Hb.read t.hb_state;
  {
    shard = t.index;
    clusters = t.clusters;
    engine = Engine.result t.session;
    global_ids = t.globals;
    injected = t.injected;
    handoffs_in = t.handoffs_in;
    handoffs_out = t.handoffs_out;
    queue_peak = Squeue.peak t.queue;
    peak_active = Engine.peak_active t.session;
    restores = t.restores;
    violations = !(t.violations);
    diagnostics = List.rev !(t.diags_rev);
    log = List.rev !(t.log_rev);
  }
