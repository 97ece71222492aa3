type token =
  | Num of float
  | Str of string
  | Ident of string
  | Keyword of string
  | Punct of string
  | Eof

type located = {
  tok : token;
  line : int;
}

exception Lex_error of string

let () =
  Printexc.register_printer (function
    | Lex_error msg -> Some ("Lexer.Lex_error: " ^ msg)
    | _ -> None)

(* Byte classes over the [int] a [peek] returns (-1 past the end). *)
let is_digit c = c >= Char.code '0' && c <= Char.code '9'

let is_ident_start c =
  (c >= Char.code 'a' && c <= Char.code 'z')
  || (c >= Char.code 'A' && c <= Char.code 'Z')
  || c = Char.code '_' || c = Char.code '$'

let is_ident_char c = is_ident_start c || is_digit c

let word_token = function
  | "var" -> Keyword "var"
  | "function" -> Keyword "function"
  | "if" -> Keyword "if"
  | "else" -> Keyword "else"
  | "while" -> Keyword "while"
  | "for" -> Keyword "for"
  | "return" -> Keyword "return"
  | "break" -> Keyword "break"
  | "continue" -> Keyword "continue"
  | "true" -> Keyword "true"
  | "false" -> Keyword "false"
  | "null" -> Keyword "null"
  | "new" -> Keyword "new"
  | word -> Ident word

let punct2 c c2 =
  match (c, c2) with
  | '=', '=' -> Some "=="
  | '!', '=' -> Some "!="
  | '<', '=' -> Some "<="
  | '>', '=' -> Some ">="
  | '&', '&' -> Some "&&"
  | '|', '|' -> Some "||"
  | '+', '=' -> Some "+="
  | '-', '=' -> Some "-="
  | '*', '=' -> Some "*="
  | '/', '=' -> Some "/="
  | '%', '=' -> Some "%="
  | '<', '<' -> Some "<<"
  | '>', '>' -> Some ">>"
  | _ -> None

let punct1 = function
  | '+' -> Some "+"
  | '-' -> Some "-"
  | '*' -> Some "*"
  | '/' -> Some "/"
  | '%' -> Some "%"
  | '<' -> Some "<"
  | '>' -> Some ">"
  | '=' -> Some "="
  | '!' -> Some "!"
  | '(' -> Some "("
  | ')' -> Some ")"
  | '{' -> Some "{"
  | '}' -> Some "}"
  | '[' -> Some "["
  | ']' -> Some "]"
  | ';' -> Some ";"
  | ',' -> Some ","
  | '.' -> Some "."
  | ':' -> Some ":"
  | '?' -> Some "?"
  | '&' -> Some "&"
  | '|' -> Some "|"
  | '^' -> Some "^"
  | '~' -> Some "~"
  | _ -> None

type cursor = {
  heap : Value.heap;
  src : Value.str;
  mutable pos : int;
  mutable line : int;
  buf : Buffer.t; (* the token being collected; cleared per token *)
}

(* Every [peek]/[peek2] below the end is one checked machine read, and
   the sequence of reads (offsets, order, count) is simulated behaviour:
   in a profiling build each read of a trusted script buffer is an MPK
   fault.  That sequence is fixed, redundant reads included (DESIGN.md
   §11), and the front-end oracle in the engine tests pins it. *)
let peek cur =
  let pos = cur.pos in
  if pos >= cur.src.Value.s_len then -1 else Value.str_get cur.heap cur.src pos

let peek2 cur =
  let pos = cur.pos + 1 in
  if pos >= cur.src.Value.s_len then -1 else Value.str_get cur.heap cur.src pos

(* Re-reads the byte it steps over to count lines. *)
let advance cur =
  if peek cur = Char.code '\n' then cur.line <- cur.line + 1;
  cur.pos <- cur.pos + 1

let fail cur msg = raise (Lex_error (Printf.sprintf "line %d: %s" cur.line msg))

let rec to_eol cur =
  let c = peek cur in
  if c >= 0 && c <> Char.code '\n' then begin
    advance cur;
    to_eol cur
  end

(* Both bytes are read, [peek] first, before either is tested. *)
let rec to_close cur =
  let c = peek cur in
  let c2 = peek2 cur in
  if c = Char.code '*' && c2 = Char.code '/' then begin
    advance cur;
    advance cur
  end
  else if c < 0 then fail cur "unterminated block comment"
  else begin
    advance cur;
    to_close cur
  end

(* A '/' that opens no comment is re-examined by both comment tests, so
   it costs one [peek] and two [peek2]s. *)
let rec skip_trivia cur =
  let c = peek cur in
  if c = Char.code ' ' || c = Char.code '\t' || c = Char.code '\r' || c = Char.code '\n' then begin
    advance cur;
    skip_trivia cur
  end
  else if c = Char.code '/' then
    if peek2 cur = Char.code '/' then begin
      to_eol cur;
      skip_trivia cur
    end
    else if peek2 cur = Char.code '*' then begin
      advance cur;
      advance cur;
      to_close cur;
      skip_trivia cur
    end

let rec digits cur =
  let c = peek cur in
  if is_digit c then begin
    Buffer.add_char cur.buf (Char.unsafe_chr c);
    advance cur;
    digits cur
  end

let lex_number cur =
  let buf = cur.buf in
  Buffer.clear buf;
  digits cur;
  (* Both bytes are read, [peek] first, before either is tested. *)
  let c = peek cur in
  let c2 = peek2 cur in
  if c = Char.code '.' && is_digit c2 then begin
    Buffer.add_char buf '.';
    advance cur;
    digits cur
  end;
  let c = peek cur in
  if c = Char.code 'e' || c = Char.code 'E' then begin
    Buffer.add_char buf 'e';
    advance cur;
    let sign = peek cur in
    if sign = Char.code '+' || sign = Char.code '-' then begin
      Buffer.add_char buf (Char.unsafe_chr sign);
      advance cur
    end;
    digits cur
  end;
  match float_of_string_opt (Buffer.contents buf) with
  | Some f -> Num f
  | None -> fail cur ("bad number literal " ^ Buffer.contents buf)

let rec string_chars cur quote =
  let c = peek cur in
  if c < 0 then fail cur "unterminated string literal"
  else if c = quote then advance cur
  else if c = Char.code '\\' then begin
    advance cur;
    (match peek cur with
    | -1 -> fail cur "unterminated escape"
    | e ->
      Buffer.add_char cur.buf
        (match Char.unsafe_chr e with
        | 'n' -> '\n'
        | 't' -> '\t'
        | 'r' -> '\r'
        | e -> e));
    advance cur;
    string_chars cur quote
  end
  else begin
    Buffer.add_char cur.buf (Char.unsafe_chr c);
    advance cur;
    string_chars cur quote
  end

let lex_string cur quote =
  advance cur;
  Buffer.clear cur.buf;
  string_chars cur quote;
  Str (Buffer.contents cur.buf)

let rec ident_chars cur =
  let c = peek cur in
  if is_ident_char c then begin
    Buffer.add_char cur.buf (Char.unsafe_chr c);
    advance cur;
    ident_chars cur
  end

let lex_word cur =
  Buffer.clear cur.buf;
  ident_chars cur;
  word_token (Buffer.contents cur.buf)

(* [peek2] is read before deciding between one and two characters. *)
let lex_punct cur c =
  let c2 = peek2 cur in
  match if c2 < 0 then None else punct2 c (Char.unsafe_chr c2) with
  | Some p ->
    advance cur;
    advance cur;
    Punct p
  | None -> (
    match punct1 c with
    | Some p ->
      advance cur;
      Punct p
    | None -> fail cur (Printf.sprintf "unexpected character %C" c))

let tokenize heap src =
  let cur = { heap; src; pos = 0; line = 1; buf = Buffer.create 16 } in
  let rec loop acc =
    skip_trivia cur;
    let line = cur.line in
    let c = peek cur in
    if c < 0 then List.rev ({ tok = Eof; line } :: acc)
    else begin
      let tok =
        if is_digit c then lex_number cur
        else if is_ident_start c then lex_word cur
        else if c = Char.code '"' || c = Char.code '\'' then lex_string cur c
        else lex_punct cur (Char.unsafe_chr c)
      in
      loop ({ tok; line } :: acc)
    end
  in
  loop []

let token_to_string = function
  | Num f -> Printf.sprintf "number %g" f
  | Str s -> Printf.sprintf "string %S" s
  | Ident s -> Printf.sprintf "identifier %s" s
  | Keyword s -> Printf.sprintf "keyword %s" s
  | Punct s -> Printf.sprintf "%S" s
  | Eof -> "end of input"
