type display =
  | Block
  | Inline
  | None_display

type t = {
  display : display;
  width : int option;
  height : int option;
  margin : int;
  padding : int;
}

let default = { display = Block; width = None; height = None; margin = 0; padding = 0 }

let parse text =
  let apply style decl =
    match String.index_opt decl ':' with
    | None -> style
    | Some i ->
      let prop = String.trim (String.sub decl 0 i) in
      let value = String.trim (String.sub decl (i + 1) (String.length decl - i - 1)) in
      let int_value () = int_of_string_opt value in
      (match prop with
      | "display" ->
        (match value with
        | "block" -> { style with display = Block }
        | "inline" -> { style with display = Inline }
        | "none" -> { style with display = None_display }
        | _ -> style)
      | "width" ->
        (match int_value () with
        | Some w when w >= 0 -> { style with width = Some w }
        | _ -> style)
      | "height" ->
        (match int_value () with
        | Some h when h >= 0 -> { style with height = Some h }
        | _ -> style)
      | "margin" ->
        (match int_value () with
        | Some m when m >= 0 -> { style with margin = m }
        | _ -> style)
      | "padding" ->
        (match int_value () with
        | Some p when p >= 0 -> { style with padding = p }
        | _ -> style)
      | _ -> style)
  in
  List.fold_left apply default (String.split_on_char ';' text)

let to_string t =
  let parts = ref [] in
  let add s = parts := s :: !parts in
  (match t.display with
  | Block -> ()
  | Inline -> add "display:inline"
  | None_display -> add "display:none");
  (match t.width with
  | Some w -> add (Printf.sprintf "width:%d" w)
  | None -> ());
  (match t.height with
  | Some h -> add (Printf.sprintf "height:%d" h)
  | None -> ());
  if t.margin > 0 then add (Printf.sprintf "margin:%d" t.margin);
  if t.padding > 0 then add (Printf.sprintf "padding:%d" t.padding);
  String.concat ";" (List.rev !parts)
