module Ptg = Mcs_ptg.Ptg

type metric = Cp | Width | Work

type t =
  | Selfish
  | Equal_share
  | Proportional of metric
  | Weighted of metric * float

let metric_name = function Cp -> "cp" | Width -> "width" | Work -> "work"

let short_name = function
  | Selfish -> "S"
  | Equal_share -> "ES"
  | Proportional m -> "PS-" ^ metric_name m
  | Weighted (m, _) -> "WPS-" ^ metric_name m

let name = function
  | Weighted (m, mu) -> Printf.sprintf "WPS-%s(%.1f)" (metric_name m) mu
  | s -> short_name s

let paper_mu = function Work -> 0.7 | Cp -> 0.5 | Width -> 0.5

let paper_eight =
  [
    Selfish;
    Equal_share;
    Proportional Cp;
    Proportional Width;
    Proportional Work;
    Weighted (Cp, paper_mu Cp);
    Weighted (Width, paper_mu Width);
    Weighted (Work, paper_mu Work);
  ]

(* [paper_eight] holds every short name once, with the paper's µ. *)
let of_short_name s =
  match List.find_opt (fun t -> short_name t = s) paper_eight with
  | Some t -> Ok t
  | None -> Error ("unknown strategy " ^ s)

let paper_six =
  [
    Selfish;
    Equal_share;
    Proportional Cp;
    Proportional Work;
    Weighted (Cp, paper_mu Cp);
    Weighted (Work, paper_mu Work);
  ]

let gamma metric ~ref_speed ptg =
  match metric with
  | Cp -> Ptg.critical_path_seq ptg ~gflops:ref_speed
  | Width -> float_of_int (Ptg.max_width ptg)
  | Work -> Ptg.work ptg

let betas strategy ~ref_speed ptgs =
  if ptgs = [] then invalid_arg "Strategy.betas: no applications";
  let n = List.length ptgs in
  let nf = float_of_int n in
  let equal = Array.make n (1. /. nf) in
  let proportional metric =
    let gammas =
      Array.of_list (List.map (gamma metric ~ref_speed) ptgs)
    in
    let total = Mcs_util.Floatx.sum gammas in
    if total <= 0. then equal
    else Array.map (fun g -> g /. total) gammas
  in
  let clamp b = Mcs_util.Floatx.clamp ~lo:Float.min_float ~hi:1. b in
  let raw =
    match strategy with
    | Selfish -> Array.make n 1.
    | Equal_share -> equal
    | Proportional m -> proportional m
    | Weighted (m, mu) ->
      if not (mu >= 0. && mu <= 1.) then
        invalid_arg "Strategy.betas: mu outside [0, 1]";
      let ps = proportional m in
      Array.map2 (fun e p -> (mu *. e) +. ((1. -. mu) *. p)) equal ps
  in
  Array.map clamp raw
