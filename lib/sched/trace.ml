module Ptg = Mcs_ptg.Ptg
module Dag = Mcs_dag.Dag
module Jsonx = Mcs_util.Jsonx

let join_procs procs =
  String.concat "+" (Array.to_list (Array.map string_of_int procs))

(* Submission times only show up in the output when they carry
   information, so pre-release consumers of the trace formats keep
   seeing the exact shape they parsed before. *)
let checked_release release schedules =
  match release with
  | None -> None
  | Some r ->
    if Array.length r <> List.length schedules then
      invalid_arg "Trace: release length differs from schedules";
    if Array.for_all (fun t -> t = 0.) r then None else Some r

let checked_meta what meta schedules =
  match meta with
  | None -> None
  | Some m ->
    if Array.length m <> List.length schedules then
      invalid_arg (Printf.sprintf "Trace: %s length differs from schedules" what);
    Some m

let to_csv ?release schedules =
  let release = checked_release release schedules in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "app,app_name,node,virtual,cluster,procs,nb_procs,start,finish";
  if release <> None then Buffer.add_string buf ",release";
  Buffer.add_char buf '\n';
  List.iteri
    (fun i sched ->
      let ptg = sched.Schedule.ptg in
      Array.iter
        (fun pl ->
          Buffer.add_string buf
            (Printf.sprintf "%d,%s,%d,%b,%d,%s,%d,%.9g,%.9g" i
               ptg.Ptg.name pl.Schedule.node
               (Ptg.is_virtual ptg pl.Schedule.node)
               pl.Schedule.cluster
               (join_procs pl.Schedule.procs)
               (Array.length pl.Schedule.procs)
               pl.Schedule.start pl.Schedule.finish);
          (match release with
          | Some r -> Buffer.add_string buf (Printf.sprintf ",%.9g" r.(i))
          | None -> ());
          Buffer.add_char buf '\n')
        sched.Schedule.placements)
    schedules;
  Buffer.contents buf

let add_task buf ~preds ptg pl =
  Buffer.add_string buf
    (Printf.sprintf
       "{\"node\":%d,\"virtual\":%b,\"cluster\":%d,\"procs\":[%s],\
        \"start\":%.17g,\"finish\":%.17g"
       pl.Schedule.node
       (Ptg.is_virtual ptg pl.Schedule.node)
       pl.Schedule.cluster
       (String.concat ","
          (Array.to_list (Array.map string_of_int pl.Schedule.procs)))
       pl.Schedule.start pl.Schedule.finish);
  Buffer.add_string buf ",\"preds\":[";
  Array.iteri
    (fun j (u, bytes) ->
      if j > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "{\"node\":%d,\"bytes\":%.17g}" u bytes))
    preds;
  Buffer.add_string buf "]}"

let to_json ?release ?betas ?alloc schedules =
  let release = checked_release release schedules in
  let betas = checked_meta "betas" betas schedules in
  let alloc = checked_meta "alloc" alloc schedules in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"applications\":[";
  List.iteri
    (fun i sched ->
      if i > 0 then Buffer.add_char buf ',';
      let ptg = sched.Schedule.ptg in
      let dag = ptg.Ptg.dag in
      Buffer.add_string buf
        (Printf.sprintf "{\"id\":%d,\"name\":%s," ptg.Ptg.id
           (Jsonx.quote ptg.Ptg.name));
      (match release with
      | Some r -> Buffer.add_string buf (Printf.sprintf "\"release\":%.17g," r.(i))
      | None -> ());
      (match betas with
      | Some b -> Buffer.add_string buf (Printf.sprintf "\"beta\":%.17g," b.(i))
      | None -> ());
      (match alloc with
      | Some a ->
        Buffer.add_string buf
          (Printf.sprintf "\"alloc\":[%s],"
             (String.concat ","
                (Array.to_list (Array.map string_of_int a.(i)))))
      | None -> ());
      Buffer.add_string buf
        (Printf.sprintf "\"makespan\":%.17g,\"tasks\":["
           sched.Schedule.makespan);
      Array.iteri
        (fun j pl ->
          if j > 0 then Buffer.add_char buf ',';
          let preds =
            Array.map
              (fun (u, e) -> (u, ptg.Ptg.edge_bytes.(e)))
              (Dag.preds dag pl.Schedule.node)
          in
          add_task buf ~preds ptg pl)
        sched.Schedule.placements;
      Buffer.add_string buf "]}")
    schedules;
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Import                                                              *)

type pred = {
  pred_node : int;
  bytes : float;
}

type row = {
  node : int;
  virt : bool;
  cluster : int;
  procs : int array;
  start : float;
  finish : float;
  preds : pred array;
}

type app = {
  app : int;
  name : string;
  release : float;
  makespan : float option;
  beta : float option;
  alloc : int array option;
  rows : row array;
  pinned : row array;
}

type doc = app array

exception Parse of string

let parse_error fmt = Printf.ksprintf (fun m -> raise (Parse m)) fmt

let parse_procs_csv cell =
  if cell = "" then [||]
  else
    Array.of_list
      (List.map
         (fun s ->
           match int_of_string_opt s with
           | Some p -> p
           | None -> parse_error "bad processor id %S" s)
         (String.split_on_char '+' cell))

let of_csv_exn text =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  match lines with
  | [] -> parse_error "empty CSV"
  | header :: body ->
    let columns = String.split_on_char ',' header in
    let index name =
      let rec find i = function
        | [] -> None
        | c :: _ when c = name -> Some i
        | _ :: rest -> find (i + 1) rest
      in
      find 0 columns
    in
    let require name =
      match index name with
      | Some i -> i
      | None -> parse_error "missing CSV column %S" name
    in
    let c_app = require "app" in
    let c_name = require "app_name" in
    let c_node = require "node" in
    let c_virtual = require "virtual" in
    let c_cluster = require "cluster" in
    let c_procs = require "procs" in
    let c_start = require "start" in
    let c_finish = require "finish" in
    let c_release = index "release" in
    (* Accumulate apps in order of first appearance of their id. *)
    let order = ref [] in
    let by_app = Hashtbl.create 8 in
    List.iteri
      (fun lineno line ->
        let cells = Array.of_list (String.split_on_char ',' line) in
        let cell i =
          if i < Array.length cells then cells.(i)
          else parse_error "line %d: missing column %d" (lineno + 2) i
        in
        let int_cell i =
          match int_of_string_opt (cell i) with
          | Some v -> v
          | None -> parse_error "line %d: bad integer %S" (lineno + 2) (cell i)
        in
        let float_cell i =
          match float_of_string_opt (cell i) with
          | Some v -> v
          | None -> parse_error "line %d: bad number %S" (lineno + 2) (cell i)
        in
        let bool_cell i =
          match bool_of_string_opt (cell i) with
          | Some v -> v
          | None -> parse_error "line %d: bad boolean %S" (lineno + 2) (cell i)
        in
        let id = int_cell c_app in
        let row =
          {
            node = int_cell c_node;
            virt = bool_cell c_virtual;
            cluster = int_cell c_cluster;
            procs = parse_procs_csv (cell c_procs);
            start = float_cell c_start;
            finish = float_cell c_finish;
            preds = [||];
          }
        in
        let release =
          match c_release with Some i -> float_cell i | None -> 0.
        in
        match Hashtbl.find_opt by_app id with
        | None ->
          order := id :: !order;
          Hashtbl.add by_app id (cell c_name, release, ref [ row ])
        | Some (_, _, rows) -> rows := row :: !rows)
      body;
    Array.of_list
      (List.rev_map
         (fun id ->
           let name, release, rows = Hashtbl.find by_app id in
           {
             app = id;
             name;
             release;
             makespan = None;
             beta = None;
             alloc = None;
             rows = Array.of_list (List.rev !rows);
             pinned = [||];
           })
         !order)

let json_row j =
  let get what o = match o with Some v -> v | None -> parse_error "task without %s" what in
  let preds =
    match Jsonx.get_list "preds" j with
    | None -> [||]
    | Some l ->
      Array.of_list
        (List.map
           (fun p ->
             {
               pred_node = get "preds.node" (Jsonx.get_int "node" p);
               bytes =
                 (match Jsonx.get_float "bytes" p with
                 | Some b -> b
                 | None -> 0.);
             })
           l)
  in
  {
    node = get "node" (Jsonx.get_int "node" j);
    virt =
      (match Jsonx.member "virtual" j with
      | Some v -> ( match Jsonx.to_bool v with Some b -> b | None -> false)
      | None -> false);
    cluster = get "cluster" (Jsonx.get_int "cluster" j);
    procs =
      Array.of_list
        (List.map
           (fun p -> get "procs element" (Jsonx.to_int p))
           (get "procs" (Jsonx.get_list "procs" j)));
    start = get "start" (Jsonx.get_float "start" j);
    finish = get "finish" (Jsonx.get_float "finish" j);
    preds;
  }

let of_json_exn text =
  match Jsonx.parse text with
  | Error m -> parse_error "invalid JSON: %s" m
  | Ok j ->
    let apps =
      match Jsonx.get_list "applications" j with
      | Some l -> l
      | None -> parse_error "no applications array"
    in
    Array.of_list
      (List.map
         (fun a ->
           let rows =
             match Jsonx.get_list "tasks" a with
             | Some l -> Array.of_list (List.map json_row l)
             | None -> parse_error "application without tasks"
           in
           let pinned =
             match Jsonx.get_list "pinned" a with
             | Some l -> Array.of_list (List.map json_row l)
             | None -> [||]
           in
           let alloc =
             match Jsonx.get_list "alloc" a with
             | Some l ->
               Some
                 (Array.of_list
                    (List.map
                       (fun x ->
                         match Jsonx.to_int x with
                         | Some v -> v
                         | None -> parse_error "bad alloc element")
                       l))
             | None -> None
           in
           {
             app =
               (match Jsonx.get_int "id" a with
               | Some id -> id
               | None -> parse_error "application without id");
             name =
               (match Jsonx.get_string "name" a with
               | Some n -> n
               | None -> parse_error "application without name");
             release =
               (match Jsonx.get_float "release" a with
               | Some r -> r
               | None -> 0.);
             makespan = Jsonx.get_float "makespan" a;
             beta = Jsonx.get_float "beta" a;
             alloc;
             rows;
             pinned;
           })
         apps)

let of_csv text =
  match of_csv_exn text with
  | doc -> Ok doc
  | exception Parse m -> Error m

let of_json text =
  match of_json_exn text with
  | doc -> Ok doc
  | exception Parse m -> Error m
