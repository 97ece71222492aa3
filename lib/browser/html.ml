type tree =
  | Element of string * (string * string) list * tree list
  | Text of string

exception Html_error of string

let () =
  Printexc.register_printer (function
    | Html_error msg -> Some ("Html.Html_error: " ^ msg)
    | _ -> None)

type cursor = { src : string; mutable pos : int }

let fail cur msg = raise (Html_error (Printf.sprintf "%s at offset %d" msg cur.pos))

(* The byte at the cursor, or -1 past the end. *)
let peek cur =
  if cur.pos < String.length cur.src then Char.code (String.unsafe_get cur.src cur.pos) else -1

let advance cur = cur.pos <- cur.pos + 1

(* The byte loops run on a local index and return where they stop; the
   cursor moves once per token. *)
let is_name_char c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' -> true
  | _ -> false

let rec name_end s i = if i < String.length s && is_name_char (String.unsafe_get s i) then name_end s (i + 1) else i

let rec ws_end s i =
  if
    i < String.length s
    &&
    match String.unsafe_get s i with
    | ' ' | '\t' | '\n' | '\r' -> true
    | _ -> false
  then ws_end s (i + 1)
  else i

(* The first [c] at or after [i], or the end of [s]. *)
let rec find_byte s c i = if i < String.length s && String.unsafe_get s i <> c then find_byte s c (i + 1) else i

(* [String.trim] would leave nothing of [s] in [i, stop). *)
let rec is_blank s i stop =
  i = stop
  ||
  match String.unsafe_get s i with
  | ' ' | '\012' | '\n' | '\r' | '\t' -> is_blank s (i + 1) stop
  | _ -> false

let skip_ws cur = cur.pos <- ws_end cur.src cur.pos

let read_name cur =
  let start = cur.pos in
  let stop = name_end cur.src start in
  if stop = start then fail cur "expected a name";
  cur.pos <- stop;
  String.sub cur.src start (stop - start)

let to_quote cur =
  cur.pos <- find_byte cur.src '"' cur.pos;
  if cur.pos = String.length cur.src then fail cur "unterminated attribute value"

let read_attrs cur =
  let rec loop acc =
    skip_ws cur;
    if cur.pos < String.length cur.src && is_name_char (String.unsafe_get cur.src cur.pos) then begin
      let name = read_name cur in
      skip_ws cur;
      if peek cur = Char.code '=' then begin
        advance cur;
        skip_ws cur;
        if peek cur <> Char.code '"' then fail cur "expected a quoted attribute value";
        advance cur;
        let start = cur.pos in
        to_quote cur;
        let value = String.sub cur.src start (cur.pos - start) in
        advance cur;
        loop ((name, value) :: acc)
      end
      else loop ((name, "") :: acc)
    end
    else List.rev acc
  in
  loop []

(* Parse a sequence of nodes until [stop_tag] (or end of input when None). *)
let rec parse_nodes cur stop_tag =
  let nodes = ref [] in
  let rec loop () =
    let c = peek cur in
    if c < 0 then
      match stop_tag with
      | None -> ()
      | Some tag -> fail cur (Printf.sprintf "missing </%s>" tag)
    else if c = Char.code '<' then
      if cur.pos + 1 < String.length cur.src && cur.src.[cur.pos + 1] = '/' then begin
        (* Closing tag: consume and verify against the stop tag. *)
        advance cur;
        advance cur;
        let name = read_name cur in
        skip_ws cur;
        if peek cur <> Char.code '>' then fail cur "expected '>' in closing tag";
        advance cur;
        match stop_tag with
        | Some tag when tag = name -> ()
        | Some tag -> fail cur (Printf.sprintf "expected </%s>, found </%s>" tag name)
        | None -> fail cur (Printf.sprintf "stray closing tag </%s>" name)
      end
      else begin
        advance cur;
        let name = read_name cur in
        let attrs = read_attrs cur in
        skip_ws cur;
        let c = peek cur in
        if c = Char.code '/' then begin
          advance cur;
          if peek cur <> Char.code '>' then fail cur "expected '>' after '/'";
          advance cur;
          nodes := Element (name, attrs, []) :: !nodes
        end
        else if c = Char.code '>' then begin
          advance cur;
          let kids = parse_nodes cur (Some name) in
          nodes := Element (name, attrs, kids) :: !nodes
        end
        else fail cur "expected '>' in opening tag";
        loop ()
      end
    else begin
      let start = cur.pos in
      cur.pos <- find_byte cur.src '<' start;
      if not (is_blank cur.src start cur.pos) then
        nodes := Text (String.sub cur.src start (cur.pos - start)) :: !nodes;
      loop ()
    end
  in
  loop ();
  List.rev !nodes

let parse src = parse_nodes { src; pos = 0 } None

let rec node_to_string buf = function
  | Text s -> Buffer.add_string buf s
  | Element (name, attrs, kids) ->
    Buffer.add_char buf '<';
    Buffer.add_string buf name;
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf (Printf.sprintf " %s=\"%s\"" k v))
      attrs;
    Buffer.add_char buf '>';
    List.iter (node_to_string buf) kids;
    Buffer.add_string buf "</";
    Buffer.add_string buf name;
    Buffer.add_char buf '>'

let to_string trees =
  let buf = Buffer.create 128 in
  List.iter (node_to_string buf) trees;
  Buffer.contents buf
