let pad ~left width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    if left then s ^ fill else fill ^ s

let render ~header rows =
  let ncols = List.length header in
  let normalize row =
    let len = List.length row in
    if len >= ncols then row else row @ List.init (ncols - len) (fun _ -> "")
  in
  let rows = List.map normalize rows in
  let widths =
    List.mapi
      (fun i h ->
        let cell_width row = String.length (List.nth row i) in
        List.fold_left (fun acc row -> max acc (cell_width row)) (String.length h) rows)
      header
  in
  let buf = Buffer.create 256 in
  let emit_row cells =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad ~left:(i = 0) (List.nth widths i) cell))
      cells;
    Buffer.add_char buf '\n'
  in
  emit_row header;
  List.iteri
    (fun i w ->
      if i > 0 then Buffer.add_string buf "  ";
      Buffer.add_string buf (String.make w '-'))
    widths;
  Buffer.add_char buf '\n';
  List.iter emit_row rows;
  Buffer.contents buf

let print ~header rows = print_string (render ~header rows)
