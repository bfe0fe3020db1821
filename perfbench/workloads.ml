(* The benchmark's four workloads, driven only through the libraries'
   public entry points.

   A run is a list of independent units, each with its own inputs drawn
   from (seed, unit index): a whole submission stream for the three
   online workloads, one scenario for the offline one. Spreading a run
   over many small inputs, instead of repeating one, is what keeps the
   seed-to-seed spread of every metric small: a single stream's
   median response moves by 15% with its burst pattern, and the cost
   of one set of the 15 offline scenario cells by 3x with its graph
   shapes.

   Each unit times its own set-up (input generation, then platform and
   scheduler construction), runs its measured phase inside a "bench.run"
   span, so that a traced unit splits into the library's phases and
   what none of them covers, and then weighs the heap the scheduler
   retains. *)

module Prng = Mcs_prng.Prng
module Random_gen = Mcs_ptg.Random_gen
module Grid5000 = Mcs_platform.Grid5000
module Strategy = Mcs_sched.Strategy
module Malleability = Mcs_sched.Malleability
module Engine = Mcs_online.Engine
module Policy = Mcs_online.Policy
module Service = Mcs_serve.Service
module Admission = Mcs_serve.Admission
module Fault = Mcs_fault.Fault
module Check = Mcs_check.Check
module Runner = Mcs_experiments.Runner
module Draw = Mcs_experiments.Workload
module Obs = Mcs_obs.Obs

type options = {
  scale : float;  (** share of the full input size of a unit *)
  check : bool;  (** audit every generation with the invariant checker *)
  inline : bool;  (** serve-steady only: run the service on one domain *)
}

type clock = { wall : float; cpu : float }
(** Elapsed seconds, and process CPU seconds summed over all domains. *)

type outcome = {
  gen : clock;  (** input generation *)
  create : clock;  (** platform and scheduler construction *)
  run : clock;  (** the measured phase *)
  retained_words : int;
      (** live heap after the measured phase, its scheduler still
          reachable *)
  apps : int;  (** application schedules produced *)
  attempted : int;  (** submissions, applications or scenarios *)
  failed : int;  (** of [attempted]: rejected, incomplete or violating *)
  responses : float array;  (** virtual completion − release, seconds *)
  digest : string;  (** fingerprint of everything the unit computed *)
  submit_s : float;  (** serve-steady: time spent inside [Service.submit] *)
}

type t = {
  name : string;
  unit_s : float;
      (** wall time of one full-scale unit on a 2-core x86 machine: fixes
          how many units a run of a given length holds, so that the
          inputs depend on the seed and the run length only *)
  cycle : int;  (** a run holds a multiple of this many units *)
  multi_domain : bool;  (** runs on several domains unless [inline] *)
  run_unit : options -> seed:int -> int -> outcome;
}

(* The units that fill [seconds] once the audit of unit 0, which runs
   with the checker on and costs about 1.5 units, has taken its share. *)
let units w ~seconds =
  let budget = seconds -. (1.5 *. w.unit_s) in
  let cycles = Float.round (budget /. (float_of_int w.cycle *. w.unit_s)) in
  w.cycle * max 1 (int_of_float cycles)

let now = Unix.gettimeofday

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed f =
  let wall = now () and cpu = cpu_now () in
  let x = f () in
  (x, { wall = now () -. wall; cpu = cpu_now () -. cpu })

let measured f = timed (fun () -> Obs.with_span "bench.run" f)

let retained keep =
  Gc.full_major ();
  let words = (Gc.quick_stat ()).Gc.live_words in
  ignore (Sys.opaque_identity keep);
  words

let scaled o count =
  max 2 (int_of_float (Float.round (o.scale *. float_of_int count)))

let unit_seed seed k = (seed * 100_003) + k

let digest parts =
  let b = Buffer.create 4096 in
  List.iter
    (Array.iter (fun f -> Buffer.add_string b (Printf.sprintf "%h;" f)))
    parts;
  Digest.to_hex (Digest.string (Buffer.contents b))

let ints l = Array.of_list (List.map float_of_int l)

let incomplete responses =
  Array.fold_left
    (fun n r -> if Float.is_finite r && r >= 0. then n else n + 1)
    0 responses

(* Random 20-task PTGs released by a Poisson process whose gaps are
   rescaled to average exactly [mean]: every seed offers the same load,
   and only the burst pattern and the graphs vary. *)
let stream ~seed ~count ~mean =
  let rng = Prng.create ~seed in
  let ptgs =
    List.init count (fun id -> Random_gen.generate ~id rng Random_gen.default)
  in
  let gaps =
    Array.init count (fun i -> if i = 0 then 0. else Prng.exponential rng ~mean)
  in
  let k = mean *. float_of_int (count - 1) /. Array.fold_left ( +. ) 0. gaps in
  let clock = ref 0. in
  List.mapi
    (fun i ptg ->
      clock := !clock +. (k *. gaps.(i));
      (ptg, !clock))
    ptgs

let wps_work =
  Strategy.Weighted (Strategy.Work, Strategy.paper_mu Strategy.Work)

(* ---------- serve-steady ---------- *)

let serve_config o =
  {
    Service.default_config with
    Service.shards = 2;
    mode = (if o.inline then Service.Inline else Service.Domains);
    admission =
      { Admission.default with Admission.capacity = 64; batch_window = 5. };
    check = o.check;
  }

let serve_unit o ~seed k =
  let apps, gen =
    timed (fun () ->
        stream ~seed:(unit_seed seed k) ~count:(scaled o 600) ~mean:4.)
  in
  let service, create =
    timed (fun () -> Service.create (serve_config o) (Grid5000.grid ()))
  in
  let submit_s = ref 0. in
  let r, run =
    measured (fun () ->
        List.iter
          (fun (ptg, release) ->
            let t = now () in
            ignore (Service.submit service ptg ~release);
            submit_s := !submit_s +. (now () -. t))
          apps;
        Service.close service)
  in
  {
    gen;
    create;
    run;
    retained_words = retained (service, r);
    apps = r.Service.admitted;
    attempted = r.Service.submitted;
    failed =
      r.Service.rejected + r.Service.violations + incomplete r.Service.responses;
    responses = r.Service.responses;
    digest =
      digest
        [
          r.Service.responses;
          ints [ r.Service.events; r.Service.reschedules; r.Service.remapped ];
        ];
    submit_s = !submit_s;
  }

(* ---------- online-churn and faulted-malleable ---------- *)

let engine_unit ~count ~policy ~faults o ~seed k =
  let seed = unit_seed seed k in
  let apps, gen =
    timed (fun () -> stream ~seed ~count:(scaled o count) ~mean:30.)
  in
  let session, create =
    timed (fun () ->
        let platform = Grid5000.rennes () in
        let faults = Option.map (fun f -> f ~seed platform apps) faults in
        let check = if o.check then Some Check.fail_on_error else None in
        Engine.create ?check ?faults ~policy platform apps)
  in
  let result, run =
    measured (fun () ->
        match
          Engine.advance session;
          Engine.result session
        with
        | r -> Some r
        | exception Check.Violation _ -> None)
  in
  let n = List.length apps in
  let outcome =
    {
      gen;
      create;
      run;
      retained_words = retained session;
      apps = n;
      attempted = n;
      failed = n;
      responses = [||];
      digest = "";
      submit_s = 0.;
    }
  in
  match result with
  | None -> outcome
  | Some r ->
    let s = r.Engine.stats in
    {
      outcome with
      failed = incomplete r.Engine.responses;
      responses = r.Engine.responses;
      digest =
        digest
          [
            r.Engine.responses;
            r.Engine.completions;
            ints
              [
                s.Engine.events_processed; s.Engine.reschedules;
                s.Engine.remapped_tasks; s.Engine.kills;
                s.Engine.task_failures; s.Engine.resizes;
              ];
          ];
    }

let churn_unit =
  engine_unit ~count:100 ~faults:None
    ~policy:(Policy.make ~reschedule_on_task_finish:true wps_work)

let faults ~seed platform apps =
  let horizon = List.fold_left (fun m (_, r) -> Float.max m r) 1. apps in
  Fault.generate ~seed platform
    {
      Fault.default with
      Fault.mttf = 1500.;
      mttr = 120.;
      task_fail_p = 0.05;
      horizon;
    }

let faulted_unit =
  engine_unit ~count:30 ~faults:(Some faults)
    ~policy:
      (Policy.make
         ~malleability:{ Malleability.default with Malleability.quantum = 10. }
         wps_work)

(* ---------- offline-paper ---------- *)

(* One cell per (family, application count) of the paper's grid. The
   random family uses the generator's default 20-task shape: with
   shapes drawn from the paper's grid a single scenario costs anything
   from 0.01 to 4.5 s, mostly in replay, which no run length averages
   out. *)
let cells =
  Array.of_list
    (List.concat_map
       (fun family -> List.map (fun count -> (family, count)) Draw.paper_counts)
       [ `Random; `Fft; `Strassen ])

let scenario o ~seed k =
  let family, count = cells.(k mod Array.length cells) in
  let count = scaled o count in
  let rng = Prng.create ~seed:(unit_seed seed k) in
  match family with
  | `Random ->
    List.init count (fun id -> Random_gen.generate ~id rng Random_gen.default)
  | `Fft -> Draw.draw rng Draw.Fft_ptgs ~count
  | `Strassen -> Draw.draw rng Draw.Strassen_ptgs ~count

let offline_unit o ~seed k =
  let ptgs, gen = timed (fun () -> scenario o ~seed k) in
  let platform, create = timed Grid5000.rennes in
  let runs, run =
    measured (fun () ->
        match Runner.evaluate platform ptgs Strategy.paper_eight with
        | runs -> runs
        | exception Check.Violation _ -> [])
  in
  let responses =
    Array.concat
      (List.map (fun (m : Runner.run_metrics) -> m.Runner.makespans) runs)
  in
  {
    gen;
    create;
    run;
    retained_words = retained runs;
    apps = Array.length responses;
    attempted = 1;
    failed = (if runs = [] then 1 else 0);
    responses;
    digest =
      digest
        (responses
        :: List.map
             (fun (m : Runner.run_metrics) -> [| m.Runner.unfairness |])
             runs);
    submit_s = 0.;
  }

let all =
  [
    {
      name = "serve-steady";
      unit_s = 1.5;
      cycle = 1;
      multi_domain = true;
      run_unit = serve_unit;
    };
    {
      name = "online-churn";
      unit_s = 1.5;
      cycle = 1;
      multi_domain = false;
      run_unit = churn_unit;
    };
    {
      name = "faulted-malleable";
      unit_s = 1.4;
      cycle = 1;
      multi_domain = false;
      run_unit = faulted_unit;
    };
    {
      name = "offline-paper";
      unit_s = 0.125;
      cycle = Array.length cells;
      multi_domain = false;
      run_unit = offline_unit;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
