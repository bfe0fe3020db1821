type config = {
  procedure : Allocation.procedure;
  mapper : List_mapper.options;
}

let default_config =
  { procedure = Allocation.Scrap_max; mapper = List_mapper.default_options }

type prepared = {
  betas : float array;
  allocations : Allocation.result array;
}

let prepare ?(config = default_config) ?ref_cluster ?up_counts ?caches
    ?(arena = Alloc_arena.create ()) ~strategy platform ptgs =
  Mcs_obs.Obs.with_span "pipeline.allocation" @@ fun () ->
  let ref_cluster =
    match ref_cluster with
    | Some r -> r
    | None -> Reference_cluster.of_platform platform
  in
  let betas =
    Strategy.betas strategy ~ref_speed:ref_cluster.Reference_cluster.speed ptgs
  in
  let caches =
    match caches with
    | None -> List.map (fun _ -> Allocation.cache_create ()) ptgs
    | Some cs ->
      if List.compare_lengths cs ptgs <> 0 then
        invalid_arg "Pipeline.prepare: one cache per PTG";
      cs
  in
  let allocations =
    Array.of_list
      (List.mapi
         (fun i (ptg, cache) ->
           let r =
             Allocation.allocate_cached ~procedure:config.procedure ?up_counts
               ~cache ~arena ref_cluster platform ~beta:betas.(i) ptg
           in
           (* The cache keeps the array it returns on an exact hit. *)
           { r with Allocation.procs = Array.copy r.Allocation.procs })
         (List.combine ptgs caches))
  in
  { betas; allocations }

let map ?(config = default_config) ?release platform ptgs prepared =
  let apps =
    List.mapi
      (fun i ptg -> (ptg, prepared.allocations.(i).Allocation.procs))
      ptgs
  in
  List_mapper.run ~options:config.mapper ?release platform
    (Reference_cluster.of_platform platform)
    apps

let schedule_concurrent ?(config = default_config) ?release ?check ?caches
    ?arena ~strategy platform ptgs =
  Mcs_obs.Obs.with_span "pipeline.schedule" @@ fun () ->
  let prepared = prepare ~config ?caches ?arena ~strategy platform ptgs in
  let schedules = map ~config ?release platform ptgs prepared in
  (match check with Some f -> f ~prepared schedules | None -> ());
  schedules

let schedule_alone ?(config = default_config) ?cache ?arena platform ptg =
  match
    schedule_concurrent ~config ?caches:(Option.map (fun c -> [ c ]) cache)
      ?arena ~strategy:Strategy.Selfish platform [ ptg ]
  with
  | [ s ] -> s
  | _ -> assert false
