module Jsonx = Mcs_util.Jsonx
module Table = Mcs_util.Table

type format = Chrome | Jsonl | Table

let format_names = [ ("chrome", Chrome); ("jsonl", Jsonl); ("table", Table) ]

type row = {
  phase : string;
  calls : int;
  total_s : float;
  self_s : float;
  alloc_w : float;
}

let profile_rows () =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (s : Obs.span) ->
      match Hashtbl.find_opt tbl s.Obs.name with
      | Some r ->
        Hashtbl.replace tbl s.Obs.name
          {
            r with
            calls = r.calls + 1;
            total_s = r.total_s +. s.Obs.dur_s;
            self_s = r.self_s +. s.Obs.self_s;
            alloc_w = r.alloc_w +. s.Obs.alloc_w;
          }
      | None ->
        order := s.Obs.name :: !order;
        Hashtbl.replace tbl s.Obs.name
          {
            phase = s.Obs.name;
            calls = 1;
            total_s = s.Obs.dur_s;
            self_s = s.Obs.self_s;
            alloc_w = s.Obs.alloc_w;
          })
    (Obs.spans ());
  List.map (Hashtbl.find tbl) (List.rev !order)
  |> List.sort (fun a b -> Float.compare b.self_s a.self_s)

let human_time s =
  if s >= 1. then Printf.sprintf "%.2f s" s
  else if s >= 1e-3 then Printf.sprintf "%.2f ms" (s *. 1e3)
  else if s >= 1e-6 then Printf.sprintf "%.2f us" (s *. 1e6)
  else Printf.sprintf "%.0f ns" (s *. 1e9)

let profile_table () =
  let rows = profile_rows () in
  let total_self =
    List.fold_left (fun acc r -> acc +. r.self_s) 0. rows
  in
  let t =
    Table.create ~title:"phase self-time profile"
      ~header:[ "phase"; "calls"; "total"; "self"; "self%"; "alloc words" ]
  in
  List.iter
    (fun r ->
      Table.add_row t
        [
          r.phase;
          string_of_int r.calls;
          human_time r.total_s;
          human_time r.self_s;
          (if total_self > 0. then
             Printf.sprintf "%.1f" (100. *. r.self_s /. total_self)
           else "-");
          Printf.sprintf "%.0f" r.alloc_w;
        ])
    rows;
  let counters =
    List.filter (fun (_, v) -> v > 0) (Obs.counter_values ())
  in
  if counters <> [] then begin
    Table.add_row t [ ""; ""; ""; ""; ""; "" ];
    List.iter
      (fun (name, v) ->
        Table.add_row t [ name; string_of_int v; ""; ""; ""; "" ])
      counters
  end;
  t

let span_fields (s : Obs.span) =
  [
    ("name", Jsonx.Str s.Obs.name);
    ("depth", Jsonx.Num (float_of_int s.Obs.depth));
    ("start_s", Jsonx.Num s.Obs.start_s);
    ("dur_s", Jsonx.Num s.Obs.dur_s);
    ("self_s", Jsonx.Num s.Obs.self_s);
    ("alloc_words", Jsonx.Num s.Obs.alloc_w);
  ]

let chrome_json () =
  let span_events =
    List.map
      (fun (s : Obs.span) ->
        Jsonx.Obj
          [
            ("name", Jsonx.Str s.Obs.name);
            ("cat", Jsonx.Str "mcs");
            ("ph", Jsonx.Str "X");
            ("ts", Jsonx.Num (s.Obs.start_s *. 1e6));
            ("dur", Jsonx.Num (s.Obs.dur_s *. 1e6));
            ("pid", Jsonx.Num 1.);
            ("tid", Jsonx.Num 1.);
            ( "args",
              Jsonx.Obj
                [
                  ("self_us", Jsonx.Num (s.Obs.self_s *. 1e6));
                  ("alloc_words", Jsonx.Num s.Obs.alloc_w);
                ] );
          ])
      (Obs.spans ())
  in
  let counter_events =
    List.filter_map
      (fun (name, v) ->
        if v = 0 then None
        else
          Some
            (Jsonx.Obj
               [
                 ("name", Jsonx.Str name);
                 ("ph", Jsonx.Str "C");
                 ("ts", Jsonx.Num 0.);
                 ("pid", Jsonx.Num 1.);
                 ("args", Jsonx.Obj [ ("value", Jsonx.Num (float_of_int v)) ]);
               ]))
      (Obs.counter_values ())
  in
  Jsonx.Obj
    [
      ("traceEvents", Jsonx.Arr (span_events @ counter_events));
      ("displayTimeUnit", Jsonx.Str "ms");
    ]

let chrome () = Jsonx.encode (chrome_json ())

let jsonl () =
  let buf = Buffer.create 1024 in
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Jsonx.encode (Jsonx.Obj (("type", Jsonx.Str "span") :: span_fields s)));
      Buffer.add_char buf '\n')
    (Obs.spans ());
  List.iter
    (fun (name, v) ->
      Buffer.add_string buf
        (Jsonx.encode
           (Jsonx.Obj
              [
                ("type", Jsonx.Str "counter");
                ("name", Jsonx.Str name);
                ("value", Jsonx.Num (float_of_int v));
              ]));
      Buffer.add_char buf '\n')
    (Obs.counter_values ());
  Buffer.contents buf

let render = function
  | Chrome -> chrome ()
  | Jsonl -> jsonl ()
  | Table -> Table.render (profile_table ()) ^ "\n"

let write format path =
  let contents = render format in
  if path = "-" then print_string contents
  else begin
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  end
