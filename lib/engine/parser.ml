exception Parse_error of string

let () =
  Printexc.register_printer (function
    | Parse_error msg -> Some ("Parser.Parse_error: " ^ msg)
    | _ -> None)

type state = { mutable toks : Lexer.located list }

let current st =
  match st.toks with
  | t :: _ -> t
  | [] -> { Lexer.tok = Lexer.Eof; line = 0 }

let advance st =
  match st.toks with
  | _ :: rest -> st.toks <- rest
  | [] -> ()

let fail st msg =
  let t = current st in
  raise
    (Parse_error
       (Printf.sprintf "line %d: %s (found %s)" t.Lexer.line msg (Lexer.token_to_string t.Lexer.tok)))

let eat_punct st p =
  match (current st).Lexer.tok with
  | Lexer.Punct q when q = p -> advance st
  | _ -> fail st (Printf.sprintf "expected %S" p)

let try_punct st p =
  match (current st).Lexer.tok with
  | Lexer.Punct q when q = p ->
    advance st;
    true
  | _ -> false

let ident st =
  match (current st).Lexer.tok with
  | Lexer.Ident name ->
    advance st;
    name
  | _ -> fail st "expected identifier"

(* Binary operator precedence, 1 binding loosest; 0 for a punctuator that
   is not a binary operator. *)
let precedence = function
  | "||" -> 1
  | "&&" -> 2
  | "|" -> 3
  | "^" -> 4
  | "&" -> 5
  | "==" | "!=" -> 6
  | "<" | "<=" | ">" | ">=" -> 7
  | "<<" | ">>" -> 8
  | "+" | "-" -> 9
  | "*" | "/" | "%" -> 10
  | _ -> 0

let rec parse_program st =
  let rec loop acc =
    match (current st).Lexer.tok with
    | Lexer.Eof -> List.rev acc
    | _ -> loop (parse_stmt st :: acc)
  in
  loop []

and parse_block st =
  eat_punct st "{";
  let rec loop acc =
    match (current st).Lexer.tok with
    | Lexer.Punct "}" ->
      advance st;
      List.rev acc
    | Lexer.Eof -> fail st "unterminated block"
    | _ -> loop (parse_stmt st :: acc)
  in
  loop []

and parse_stmt st =
  match (current st).Lexer.tok with
  | Lexer.Keyword "var" ->
    advance st;
    let name = ident st in
    let init = if try_punct st "=" then parse_expr st else Ast.Null in
    eat_punct st ";";
    Ast.Var (name, init)
  | Lexer.Keyword "function" ->
    advance st;
    let name = ident st in
    let params = parse_params st in
    let body = parse_block st in
    Ast.Func_decl (name, params, body)
  | Lexer.Keyword "if" ->
    advance st;
    eat_punct st "(";
    let cond = parse_expr st in
    eat_punct st ")";
    let then_ = parse_block st in
    let else_ =
      match (current st).Lexer.tok with
      | Lexer.Keyword "else" ->
        advance st;
        (match (current st).Lexer.tok with
        | Lexer.Keyword "if" -> [ parse_stmt st ]
        | _ -> parse_block st)
      | _ -> []
    in
    Ast.If (cond, then_, else_)
  | Lexer.Keyword "while" ->
    advance st;
    eat_punct st "(";
    let cond = parse_expr st in
    eat_punct st ")";
    Ast.While (cond, parse_block st)
  | Lexer.Keyword "for" ->
    advance st;
    eat_punct st "(";
    let init =
      if try_punct st ";" then None
      else begin
        let s =
          match (current st).Lexer.tok with
          | Lexer.Keyword "var" ->
            advance st;
            let name = ident st in
            eat_punct st "=";
            Ast.Var (name, parse_expr st)
          | _ -> Ast.Expr (parse_expr st)
        in
        eat_punct st ";";
        Some s
      end
    in
    let cond = if try_punct st ";" then None
      else begin
        let e = parse_expr st in
        eat_punct st ";";
        Some e
      end
    in
    let step =
      match (current st).Lexer.tok with
      | Lexer.Punct ")" -> None
      | _ -> Some (Ast.Expr (parse_expr st))
    in
    eat_punct st ")";
    Ast.For (init, cond, step, parse_block st)
  | Lexer.Keyword "return" ->
    advance st;
    let v =
      match (current st).Lexer.tok with
      | Lexer.Punct ";" -> None
      | _ -> Some (parse_expr st)
    in
    eat_punct st ";";
    Ast.Return v
  | Lexer.Keyword "break" ->
    advance st;
    eat_punct st ";";
    Ast.Break
  | Lexer.Keyword "continue" ->
    advance st;
    eat_punct st ";";
    Ast.Continue
  | Lexer.Punct "{" -> Ast.Block (parse_block st)
  | _ ->
    let e = parse_expr st in
    eat_punct st ";";
    Ast.Expr e

and parse_params st =
  eat_punct st "(";
  if try_punct st ")" then []
  else begin
    let rec loop acc =
      let p = ident st in
      if try_punct st "," then loop (p :: acc)
      else begin
        eat_punct st ")";
        List.rev (p :: acc)
      end
    in
    loop []
  end

and parse_expr st = parse_assign st

and parse_assign st =
  let lhs = parse_ternary st in
  match (current st).Lexer.tok with
  | Lexer.Punct (("=" | "+=" | "-=" | "*=" | "/=" | "%=") as op) ->
    (match lhs with
    | Ast.Ident _ | Ast.Index _ | Ast.Member _ ->
      advance st;
      let rhs = parse_assign st in
      Ast.Assign (op, lhs, rhs)
    | _ -> fail st "invalid assignment target")
  | _ -> lhs

and parse_ternary st =
  let cond = parse_binary st 1 in
  if try_punct st "?" then begin
    let a = parse_assign st in
    eat_punct st ":";
    let b = parse_assign st in
    Ast.Ternary (cond, a, b)
  end
  else cond

(* Precedence climbing: folds operators binding at least [min_prec] (at
   least 1) into a left-associative tree, the right operand taking only
   tighter ones. *)
and parse_binary st min_prec =
  let rec loop lhs =
    match (current st).Lexer.tok with
    | Lexer.Punct p ->
      let prec = precedence p in
      if prec >= min_prec then begin
        advance st;
        let rhs = parse_binary st (prec + 1) in
        loop (Ast.Binary (p, lhs, rhs))
      end
      else lhs
    | _ -> lhs
  in
  loop (parse_unary st)

and parse_unary st =
  match (current st).Lexer.tok with
  | Lexer.Punct "!" ->
    advance st;
    Ast.Unary ("!", parse_unary st)
  | Lexer.Punct "-" ->
    advance st;
    Ast.Unary ("-", parse_unary st)
  | Lexer.Punct "~" ->
    advance st;
    Ast.Unary ("~", parse_unary st)
  | _ -> parse_postfix st

and parse_postfix st =
  let rec loop e =
    match (current st).Lexer.tok with
    | Lexer.Punct "." ->
      advance st;
      let name = ident st in
      (match (current st).Lexer.tok with
      | Lexer.Punct "(" -> loop (Ast.Method_call (e, name, parse_args st))
      | _ -> loop (Ast.Member (e, name)))
    | Lexer.Punct "[" ->
      advance st;
      let idx = parse_expr st in
      eat_punct st "]";
      loop (Ast.Index (e, idx))
    | Lexer.Punct "(" -> loop (Ast.Call (e, parse_args st))
    | _ -> e
  in
  loop (parse_primary st)

and parse_args st =
  eat_punct st "(";
  if try_punct st ")" then []
  else begin
    let rec loop acc =
      let a = parse_expr st in
      if try_punct st "," then loop (a :: acc)
      else begin
        eat_punct st ")";
        List.rev (a :: acc)
      end
    in
    loop []
  end

and parse_primary st =
  match (current st).Lexer.tok with
  | Lexer.Num f ->
    advance st;
    Ast.Num f
  | Lexer.Str s ->
    advance st;
    Ast.Str s
  | Lexer.Keyword "true" ->
    advance st;
    Ast.Bool true
  | Lexer.Keyword "false" ->
    advance st;
    Ast.Bool false
  | Lexer.Keyword "null" ->
    advance st;
    Ast.Null
  | Lexer.Keyword "new" ->
    (* Only `new Array(n)` is supported; other uses are object literals. *)
    advance st;
    let callee = ident st in
    let args = parse_args st in
    if callee = "Array" then
      match args with
      | [ n ] -> Ast.Call (Ast.Ident "__new_array", [ n ])
      | [] -> Ast.Array_lit []
      | _ -> fail st "new Array takes at most one argument"
    else fail st "only `new Array(...)` is supported"
  | Lexer.Keyword "function" ->
    advance st;
    let params = parse_params st in
    let body = parse_block st in
    Ast.Func_lit (params, body)
  | Lexer.Ident name ->
    advance st;
    Ast.Ident name
  | Lexer.Punct "(" ->
    advance st;
    let e = parse_expr st in
    eat_punct st ")";
    e
  | Lexer.Punct "[" ->
    advance st;
    if try_punct st "]" then Ast.Array_lit []
    else begin
      let rec loop acc =
        let e = parse_expr st in
        if try_punct st "," then loop (e :: acc)
        else begin
          eat_punct st "]";
          List.rev (e :: acc)
        end
      in
      Ast.Array_lit (loop [])
    end
  | Lexer.Punct "{" ->
    advance st;
    if try_punct st "}" then Ast.Object_lit []
    else begin
      let parse_key () =
        match (current st).Lexer.tok with
        | Lexer.Ident name | Lexer.Str name | Lexer.Keyword name ->
          advance st;
          name
        | _ -> fail st "expected property name"
      in
      let rec loop acc =
        let key = parse_key () in
        eat_punct st ":";
        let v = parse_expr st in
        if try_punct st "," then loop ((key, v) :: acc)
        else begin
          eat_punct st "}";
          List.rev ((key, v) :: acc)
        end
      in
      Ast.Object_lit (loop [])
    end
  | _ -> fail st "expected expression"

let parse toks = parse_program { toks }
