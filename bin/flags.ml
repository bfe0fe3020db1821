(* The flags the scheduling CLIs share, each defined once and parsed
   into a typed group: the scenario (site, strategy, PTG family, count,
   seed), the fault process, the malleability model and the trace
   exports. Where the tools differ, the default or the doc text is a
   parameter. Enumerated values parse through converters, so a bad
   value is a command-line error (exit 2, see [Cli.eval]) even when its
   group is switched off. *)

open Cmdliner
module Grid5000 = Mcs_platform.Grid5000
module Strategy = Mcs_sched.Strategy
module Malleability = Mcs_sched.Malleability
module Policy = Mcs_online.Policy
module Workload = Mcs_experiments.Workload
module Fault = Mcs_fault.Fault

(* A converter from a library parser and the value's command-line name,
   which --help shows for the default. *)
let conv parse name =
  Arg.conv' (parse, fun ppf v -> Format.pp_print_string ppf (name v))

(* A site keeps its spelling as given: the summaries print it. *)
let site_of_name s = Result.map (fun p -> (s, p)) (Grid5000.by_name s)
let site_conv = conv site_of_name fst

let strategy_conv = conv Strategy.of_short_name Strategy.short_name

let family_conv =
  conv Workload.family_of_string (fun f ->
      String.lowercase_ascii (Workload.family_name f))

let granularity_conv =
  conv
    (function
      | "proc" -> Ok Fault.Proc
      | "cluster" -> Ok Fault.Cluster
      | g -> Error ("unknown fault granularity: " ^ g ^ " (proc|cluster)"))
    (function Fault.Proc -> "proc" | Fault.Cluster -> "cluster")

(* A policy registry name, kept as given: each tool builds the named
   policy over [Policy.make]'s default triggers. *)
let policy_conv =
  conv
    (fun name ->
      if List.mem name Policy.names then Ok name
      else
        Error
          (Printf.sprintf "unknown policy %S (expected %s)" name
             (String.concat ", " Policy.names)))
    Fun.id

(* A virtual time: a float, and finite. *)
let time_conv =
  Arg.conv
    ( (fun s ->
        Result.bind (Arg.conv_parser Arg.float s) (fun t ->
            if Float.is_finite t then Ok t
            else Error (`Msg ("not a finite virtual time: " ^ s)))),
      Arg.conv_printer Arg.float )

let seed = Arg.(value & opt int 0 & info [ "seed" ] ~doc:"PRNG seed")

type scenario = {
  site : string;
  platform : Mcs_platform.Platform.t;
  strategy : Strategy.t;
  family : Workload.family;
  count : int;
  seed : int;
}

let scenario ~site ~strategy ~count =
  let make (site, platform) strategy family count seed =
    { site; platform; strategy; family; count; seed }
  in
  Term.(
    const make
    $ Arg.(
        value
        & opt site_conv (Result.get_ok (site_of_name site))
        & info [ "site" ]
            ~doc:
              (String.concat ", " Grid5000.names
              ^ " (grid: all four sites federated)"))
    $ Arg.(
        value
        & opt strategy_conv (Result.get_ok (Strategy.of_short_name strategy))
        & info [ "strategy" ]
            ~doc:"S, ES, PS-cp, PS-width, PS-work, WPS-cp, WPS-width, WPS-work")
    $ Arg.(
        value
        & opt family_conv Workload.Random_mixed_scenarios
        & info [ "family" ] ~doc:"random, fft or strassen")
    $ Arg.(
        value & opt int count
        & info [ "count" ] ~doc:"applications in the scenario")
    $ seed)

let rng sc = Mcs_prng.Prng.create ~seed:sc.seed

(* The scenario's PTGs; exit 2 on a count below one. *)
let draw sc =
  Cli.checked (fun () -> Workload.draw (rng sc) sc.family ~count:sc.count)

(* The PTGs, then their Poisson release times from the same stream,
   paired in submission order; exit 2 on a bad count or mean. *)
let stream sc ~mean =
  Cli.checked @@ fun () ->
  let rng = rng sc in
  let ptgs = Workload.draw rng sc.family ~count:sc.count in
  let release = Workload.releases rng ~count:sc.count ~mean in
  List.mapi (fun i ptg -> (ptg, release.(i))) ptgs

let mean_interarrival default =
  Arg.(
    value & opt float default
    & info [ "mean-interarrival" ]
        ~doc:"mean of the Poisson inter-arrival times, virtual seconds")

let policy ~default ~doc =
  Arg.(
    value & opt policy_conv default
    & info [ "policy" ] ~doc:(doc ^ ": " ^ String.concat ", " Policy.names))

let check ~doc = Arg.(value & flag & info [ "check" ] ~doc)

(* [term] with [~full], else [default] and no flag. *)
let tuned ~full term default = if full then term else Term.const default
let real name default doc = Arg.(value & opt float default & info [ name ] ~doc)
let whole name default doc = Arg.(value & opt int default & info [ name ] ~doc)

(* The fault process, on under --faults. Without [~full], the
   granularity and horizon are [Fault.default]'s. *)
let faults ~doc ~full =
  let d = Fault.default in
  let make on mttf mttr task_fail_p granularity horizon =
    if on then Some { Fault.mttf; mttr; task_fail_p; granularity; horizon }
    else None
  in
  Term.(
    const make
    $ Arg.(value & flag & info [ "faults" ] ~doc)
    $ real "mttf" d.mttf
        "mean time to failure per unit, seconds ('inf' disables outages)"
    $ real "mttr" d.mttr "mean time to repair, seconds"
    $ real "task-fail-p" d.task_fail_p
        "per-attempt transient task failure probability in [0,1]"
    $ tuned ~full
        Arg.(
          value
          & opt granularity_conv d.granularity
          & info [ "fault-granularity" ]
              ~doc:"failure unit: proc (independent processors) or cluster")
        d.granularity
    $ tuned ~full
        (real "fault-horizon" d.horizon
           "no outage begins after this time, seconds")
        d.horizon)

(* The malleability model, on under --malleable. Without [~full], all
   but the resize quantum are [Malleability.default]'s. *)
let malleable ~doc ~full =
  let d = Malleability.default in
  let make on quantum redist_cost min_width shrink_active_above
      grow_active_below =
    if on then
      Some
        {
          Malleability.quantum;
          redist_cost;
          min_width;
          shrink_active_above;
          grow_active_below;
        }
    else None
  in
  Term.(
    const make
    $ Arg.(value & flag & info [ "malleable" ] ~doc)
    $ real "resize-quantum" d.quantum
        "grid spacing of legal resize points, seconds (a running segment \
         may only be preempted at start + k*quantum)"
    $ tuned ~full
        (real "redist-cost" d.redist_cost
           "redistribution overhead per moved processor, seconds")
        d.redist_cost
    $ tuned ~full
        (whole "min-width" d.min_width
           "no resized segment runs on fewer processors")
        d.min_width
    $ tuned ~full
        (whole "shrink-above" d.shrink_active_above
           "shrink running tasks while more applications are active")
        d.shrink_active_above
    $ tuned ~full
        (whole "grow-below" d.grow_active_below
           "grow running tasks while fewer applications are active")
        d.grow_active_below)

type exports = { csv : string option; json : string option }

let exports =
  let path name format =
    Arg.(
      value
      & opt (some string) None
      & info [ name ]
          ~doc:("export the schedules as " ^ format ^ " to this path"))
  in
  Term.(
    const (fun csv json -> { csv; json })
    $ path "csv" "CSV" $ path "json" "JSON")

let write_file path write =
  Out_channel.with_open_text path write;
  Printf.eprintf "wrote %s\n" path

(* Render and write each requested export, CSV first. *)
let export e ~csv ~json =
  let write render path =
    write_file path (fun oc -> output_string oc (render ()))
  in
  Option.iter (write csv) e.csv;
  Option.iter (write json) e.json
