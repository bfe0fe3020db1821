type t = {
  title : string;
  header : string list;
  mutable rows : string list list; (* reverse order *)
}

let create ~title ~header = { title; header; rows = [] }

let add_row t row =
  if List.length row <> List.length t.header then
    invalid_arg
      (Printf.sprintf "Table.add_row: %d cells for %d columns"
         (List.length row) (List.length t.header));
  t.rows <- row :: t.rows

let fmt_float x = if Float.is_nan x then "-" else Printf.sprintf "%.4g" x

let render t =
  let rows = List.rev t.rows in
  let all = t.header :: rows in
  let ncols = List.length t.header in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
      row
  in
  List.iter measure all;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf t.title;
  Buffer.add_char buf '\n';
  let pad i cell =
    let missing = widths.(i) - String.length cell in
    cell ^ String.make (max 0 missing) ' '
  in
  let emit row =
    Buffer.add_string buf (String.concat "  " (List.mapi pad row));
    Buffer.add_char buf '\n'
  in
  emit t.header;
  let total =
    Array.fold_left ( + ) 0 widths + (2 * (max 0 (ncols - 1)))
  in
  Buffer.add_string buf (String.make total '-');
  Buffer.add_char buf '\n';
  List.iter emit rows;
  Buffer.contents buf

let print t =
  print_string (render t);
  print_newline ()
