module Prng = Mcs_prng.Prng
module Metrics = Mcs_metrics.Metrics
module Table = Mcs_util.Table

let resolve_runs runs =
  let bad what v =
    invalid_arg (Printf.sprintf "%s must be a positive integer, got %s" what v)
  in
  match runs with
  | Some n when n > 0 -> n
  | Some n -> bad "runs" (string_of_int n)
  | None -> (
    match Sys.getenv_opt "MCS_RUNS" with
    | None -> 25
    | Some s -> (
      match int_of_string_opt s with
      | Some n when n > 0 -> n
      | Some _ | None -> bad "MCS_RUNS" (Printf.sprintf "%S" s)))

let scenario_seed ~seed ~count ~platform_idx ~run =
  (((seed * 1_000_003) + (count * 10_007) + (platform_idx * 101) + run)
  * 2_654_435_761)
  land max_int

let scenarios ~family ~count ~runs ~seed =
  let platforms = Array.of_list (Mcs_platform.Grid5000.all ()) in
  List.concat_map
    (fun run ->
      List.init (Array.length platforms) (fun platform_idx ->
          let rng =
            Prng.create
              ~seed:(scenario_seed ~seed ~count ~platform_idx ~run)
          in
          let ptgs = Workload.draw rng family ~count in
          (platforms.(platform_idx), ptgs)))
    (List.init runs (fun r -> r))

let releases ~seed ~count i =
  Workload.releases
    (Prng.create ~seed:(seed + (count * 31) + (i * 1009)))
    ~count ~mean:30.

type cell = { unfairness : float; makespan : float; extras : float array }

let of_runner (r : Runner.run_metrics) =
  {
    unfairness = r.unfairness;
    makespan = r.global_makespan;
    extras = [| r.avg_makespan |];
  }

type mean = {
  unfairness : float;
  makespan : float;
  relative_makespan : float;
  extras : float array;
}

let rec transpose = function
  | [] | [] :: _ -> []
  | rows -> List.map List.hd rows :: transpose (List.map List.tl rows)

let compare ?runs ~family ~count ~seed arms =
  let runs = resolve_runs runs in
  let per_scenario =
    Mcs_util.Parmap.map
      (fun (i, (platform, ptgs)) ->
        let cells = arms i platform ptgs in
        let best =
          List.fold_left
            (fun acc (c : cell) -> Float.min acc c.makespan)
            Float.infinity cells
        in
        List.map
          (fun (c : cell) -> (c, Metrics.relative_makespan c.makespan ~best))
          cells)
      (List.mapi (fun i s -> (i, s)) (scenarios ~family ~count ~runs ~seed))
  in
  List.map
    (fun (arm : (cell * float) list) ->
      let mean f = Mcs_util.Floatx.mean (Array.of_list (List.map f arm)) in
      {
        unfairness = mean (fun (c, _) -> c.unfairness);
        makespan = mean (fun (c, _) -> c.makespan);
        relative_makespan = mean snd;
        extras =
          Array.mapi
            (fun k _ -> mean (fun (c, _) -> c.extras.(k)))
            (fst (List.hd arm)).extras;
      })
    (transpose per_scenario)

let pair unfairness relative = Printf.sprintf "%.2f / %.2f" unfairness relative

let grid ~title ~corner ~row ~column ~cell points =
  let distinct key =
    List.fold_left
      (fun acc p -> if List.mem (key p) acc then acc else acc @ [ key p ])
      [] points
  in
  let columns = distinct column in
  let table = Table.create ~title ~header:(corner :: columns) in
  List.iter
    (fun r ->
      Table.add_row table
        (r
        :: List.map
             (fun c ->
               match
                 List.find_opt (fun p -> row p = r && column p = c) points
               with
               | Some p -> cell p
               | None -> "-")
             columns))
    (distinct row);
  table
