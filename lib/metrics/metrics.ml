module Floatx = Mcs_util.Floatx

(* A degenerate application — empty PTG, zero or non-finite makespan —
   used to abort a whole experiment sweep with [invalid_arg]. Such an
   application is unperturbed by definition (there is no work to slow
   down), so its slowdown saturates to the neutral 1. See the .mli for
   the rationale of saturate-vs-skip. *)
let degenerate m = not (Float.is_finite m) || m <= 0.

let slowdown ~own ~multi =
  if degenerate own || degenerate multi then 1. else own /. multi

let unfairness slowdowns =
  if Array.length slowdowns = 0 then 0.
  else
    let avg = Floatx.mean slowdowns in
    Floatx.sum (Array.map (fun s -> Float.abs (s -. avg)) slowdowns)

let unfairness_of_makespans ~own ~multi =
  if Array.length own <> Array.length multi then
    invalid_arg "Metrics.unfairness_of_makespans: length mismatch";
  (* Skip degenerate applications entirely: a saturated slowdown of 1
     would still shift the mean every well-formed application is
     compared against, so dispersion is measured over the real ones
     only. *)
  let pairs =
    Array.to_seq (Array.map2 (fun o m -> (o, m)) own multi)
    |> Seq.filter (fun (o, m) -> not (degenerate o || degenerate m))
    |> Array.of_seq
  in
  (* All applications degenerate (every makespan NaN, infinite or
     non-positive): there is no population to measure dispersion over,
     so saturate to perfectly fair rather than let a NaN leak into
     experiment tables — the same saturate-don't-propagate stance as
     {!slowdown}. *)
  if Array.length pairs = 0 then 0.
  else unfairness (Array.map (fun (o, m) -> slowdown ~own:o ~multi:m) pairs)

let relative_makespan m ~best =
  if best <= 0. then invalid_arg "Metrics.relative_makespan: best <= 0";
  m /. best
