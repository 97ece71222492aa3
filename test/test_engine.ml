(* Tests for the MiniJS engine: lexer, parser, evaluator, machine-backed
   values, builtins and host functions. *)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let fresh_engine ?seed () =
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
  Engine.create ?seed env

let eval_num src =
  let e = fresh_engine () in
  match Engine.eval_string e src with
  | Engine.Value.Num f -> f
  | v -> Alcotest.fail (Printf.sprintf "expected number, got %s" (Engine.Value.type_name v))

let eval_str src =
  let e = fresh_engine () in
  let v = Engine.eval_string e src in
  Engine.Value.to_display_string (Engine.heap e) v

let check_num name expected src = Alcotest.(check (float 1e-9)) name expected (eval_num src)
let check_str name expected src = Alcotest.(check string) name expected (eval_str src)

(* --- Lexer --- *)

let test_lexer_tokens () =
  let e = fresh_engine () in
  let heap = Engine.heap e in
  let src =
    match Engine.Value.str_of_string heap "var x = 1.5e2; // comment\n x >= 'a\\n';" with
    | Engine.Value.Str s -> s
    | _ -> assert false
  in
  let toks = List.map (fun l -> l.Engine.Lexer.tok) (Engine.Lexer.tokenize heap src) in
  Alcotest.(check (list string)) "token stream"
    [ "keyword var"; "identifier x"; "\"=\""; "number 150"; "\";\""; "identifier x";
      "\">=\""; "string \"a\\n\""; "\";\""; "end of input" ]
    (List.map Engine.Lexer.token_to_string toks)

let test_lexer_line_numbers () =
  let e = fresh_engine () in
  let heap = Engine.heap e in
  let src =
    match Engine.Value.str_of_string heap "1;\n2;\n/* multi\nline */ 3;" with
    | Engine.Value.Str s -> s
    | _ -> assert false
  in
  let lines =
    Engine.Lexer.tokenize heap src
    |> List.filter_map (fun l ->
           match l.Engine.Lexer.tok with
           | Engine.Lexer.Num _ -> Some l.Engine.Lexer.line
           | _ -> None)
  in
  Alcotest.(check (list int)) "lines" [ 1; 2; 4 ] lines

let test_lexer_errors () =
  let e = fresh_engine () in
  List.iter
    (fun src ->
      Alcotest.(check bool) (Printf.sprintf "lex error: %s" src) true
        (match Engine.eval_string e src with
        | exception Engine.Lexer.Lex_error _ -> true
        | _ -> false))
    [ "\"unterminated"; "var x = @;"; "/* open" ]

(* --- Parser --- *)

let test_parser_errors () =
  let e = fresh_engine () in
  List.iter
    (fun src ->
      Alcotest.(check bool) (Printf.sprintf "parse error: %s" src) true
        (match Engine.eval_string e src with
        | exception Engine.Parser.Parse_error _ -> true
        | _ -> false))
    [ "var;"; "if (1) return;"; "1 +;"; "function () {};"; "{ x: 1 };"; "f(1,;" ]

(* --- Front-end oracle ---

   The lexer reads the script byte by byte out of machine memory, and in
   a profiling build every one of those checked reads of a trusted (MT)
   script buffer is an MPK fault the profiler services: the read
   sequence is simulated behaviour, not an implementation detail.  These
   pins were taken from the list-scanning, option-returning front end
   and hold any rewrite to the same tokens, line numbers, trees, error
   messages and ordered read offsets. *)

let token_key = function
  | Engine.Lexer.Num f -> Printf.sprintf "N%h" f
  | Engine.Lexer.Str s -> "S" ^ String.escaped s
  | Engine.Lexer.Ident s -> "I" ^ s
  | Engine.Lexer.Keyword s -> "K" ^ s
  | Engine.Lexer.Punct s -> "P" ^ s
  | Engine.Lexer.Eof -> "E"

type front_end_run = {
  tokens : string;     (* "line:token" per token, or the Lex_error text *)
  tree : string;       (* the marshalled AST, or the Parse_error text *)
  reads : int list;    (* offsets of the lexer's checked reads, in order *)
}

(* Lexes and parses [src] the way the browser hands a script over: the
   text sits in an MT buffer of a profiling build and the engine reads it
   from the untrusted side, so each lexer read raises one [Mpk_fault]. *)
let run_front_end env heap src =
  let len = String.length src in
  let buf = Pkru_safe.Env.alloc env ~site:Browser.Sites.script_source (max len 1) in
  if len > 0 then Sim.Machine.write_string (Pkru_safe.Env.machine env) buf src;
  let source =
    match Engine.Value.of_foreign_buffer ~addr:buf ~len with
    | Engine.Value.Str s -> s
    | _ -> assert false
  in
  let sink = Telemetry.Sink.create ~capacity:((16 * len) + 1024) ~record_spans:false () in
  let lexed =
    Telemetry.Ctx.with_sink (Pkru_safe.Env.ctx env) sink (fun () ->
        Pkru_safe.Env.ffi_call env (fun () ->
            match Engine.Lexer.tokenize heap source with
            | toks -> Ok toks
            | exception Engine.Lexer.Lex_error msg -> Error ("Lex_error: " ^ msg)))
  in
  if Telemetry.Sink.dropped sink > 0 then Alcotest.fail "trace ring too small for the read log";
  let reads =
    List.filter_map
      (fun r ->
        match r.Telemetry.Event.event with
        | Telemetry.Event.Mpk_fault { addr; _ } -> Some (addr - buf)
        | _ -> None)
      (Telemetry.Sink.events sink)
  in
  Pkru_safe.Env.dealloc env buf;
  match lexed with
  | Error msg -> { tokens = msg; tree = ""; reads }
  | Ok toks ->
    let tokens =
      String.concat "\n"
        (List.map
           (fun l -> Printf.sprintf "%d:%s" l.Engine.Lexer.line (token_key l.Engine.Lexer.tok))
           toks)
    in
    let tree =
      match Engine.Parser.parse toks with
      | prog -> Marshal.to_string prog [ Marshal.No_sharing ]
      | exception Engine.Parser.Parse_error msg -> "Parse_error: " ^ msg
    in
    { tokens; tree; reads }

let profiling_front_end () =
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Profiling)) in
  let heap = Engine.heap (Engine.create env) in
  run_front_end env heap

let dom_generators =
  Workloads.Dom_scripts.
    [ dom_attr; dom_create; dom_query; dom_html; dom_traverse; jslib_toggle; jslib_build;
      dom_style; jslib_select; dom_events ]

(* Inputs that stress the read sequence: number tails, lone and doubled
   slashes, comments at the end of input, escapes, two-character
   punctuators split by the end of input, non-ASCII bytes. *)
let front_end_edge_cases =
  [ ""; " \t\r\n"; "1"; "1."; "1.x"; "1.5"; "1.5e2"; "2E-3;"; "3e+4"; "7e"; "260;"; "0.25.5";
    "a/b;"; "a /= 2;"; "/"; "//"; "// end"; "/**/"; "/* a\n*/ b"; "/*/ x */1;"; "1/"; "x/*";
    "\"a\\nb\\t\\r\\\\\\\"\";"; "'it\\'s';"; "'\\q';"; "a==b!=c<=d>=e&&f||g<<h>>i;";
    "x+=1;x-=2;x*=3;x%=4;"; "="; "!"; "<"; "a<"; "f(a,b)[c].d?e:f;"; "~-!x^y&z|w;"; "\xc3\xa9";
    "var $_a9 = _b;"; "if(x){}else if(y){}else{}"; "for(;;){break;continue;}";
    "return;"; "new Array(3);"; "{a:1,'b':2,var:3};"; "function(x){return x;}(1);";
    "1 = 2;"; "a.b = c[d] = e;"; "x ? y ? 1 : 2 : 3;"; "1 + 2 * 3 - 4 / 5 % 6;";
    "a || b && c | d ^ e & f == g < h << i + j * k;" ]

(* Malformed inputs and their exact error text. *)
let front_end_errors =
  [ ("\"unterminated", "Lex_error: line 1: unterminated string literal");
    ("'a\\", "Lex_error: line 1: unterminated escape");
    ("1;\n/* open\n", "Lex_error: line 3: unterminated block comment");
    ("var x = @;", "Lex_error: line 1: unexpected character '@'");
    ("var x =\n 1e;", "Lex_error: line 2: bad number literal 1e");
    ("a + ;", "Parse_error: line 1: expected expression (found \";\")");
    ("1 = 2;", "Parse_error: line 1: invalid assignment target (found \"=\")");
    ("a + b = c;", "Parse_error: line 1: invalid assignment target (found \"=\")");
    ("var;", "Parse_error: line 1: expected identifier (found \";\")");
    ("f(1,;", "Parse_error: line 1: expected expression (found \";\")");
    ("{\n  x = 1;\n", "Parse_error: line 3: unterminated block (found end of input)");
    ("new Foo();", "Parse_error: line 1: only `new Array(...)` is supported (found \";\")") ]

let front_end_groups () =
  let bench = List.map (fun b -> b.Workloads.Bench_def.script) Workloads.Registry.benches in
  let browsing =
    List.concat_map (fun s -> s.Workloads.Browsing.scripts) Workloads.Browsing.sessions
  in
  let dom = List.concat_map (fun g -> [ g ~iters:1; g ~iters:50 ]) dom_generators in
  [ ("benchmarks", bench); ("browsing", browsing); ("dom generators", dom);
    ("edge cases", front_end_edge_cases @ List.map fst front_end_errors) ]

(* (group, script count, total reads, digests of the tokens, the trees
   and the read offsets). *)
let front_end_pins =
  [ ("benchmarks", 93, 345640, "e7d62722e607684bf6889443b2d5f9c7",
     "8b26cfd6f5533d829ec7871bfff4e6ed", "9935325b0f6a2a41d1e34baf2bfaade1");
    ("browsing", 9, 5835, "800eaa57b40b6f4ceb01d6621cdc94a9",
     "644293a4bbbcbf9d1e2bcf631bb51cbf", "d063ce03a7dcbf8c026cfdbfa78bea5a");
    ("dom generators", 20, 20392, "f319cbf0f5bc3515a1233104fea0d435",
     "0242551db4029f77238ce5d7234fd005", "f15d7076660eeaa1a21a662080d32874");
    ("edge cases", 58, 1782, "20d710240abb6d91ac8585ce0835e15b",
     "d472327193419d8f3b52f851fc3a2d23", "5a36a13769d012026af112e2efeafa8f") ]

let test_front_end_oracle () =
  let run = profiling_front_end () in
  let got =
    List.map
      (fun (group, scripts) ->
        let runs = List.map run scripts in
        let digest f = Digest.to_hex (Digest.string (String.concat "\x00" (List.map f runs))) in
        ( group,
          List.length scripts,
          List.fold_left (fun n r -> n + List.length r.reads) 0 runs,
          digest (fun r -> r.tokens),
          digest (fun r -> r.tree),
          digest (fun r -> String.concat "," (List.map string_of_int r.reads)) ))
      (front_end_groups ())
  in
  Alcotest.(check (list (pair string (pair int (pair int (pair string (pair string string)))))))
    "tokens, trees and read offsets"
    (List.map (fun (g, n, reads, t, a, r) -> (g, (n, (reads, (t, (a, r)))))) front_end_pins)
    (List.map (fun (g, n, reads, t, a, r) -> (g, (n, (reads, (t, (a, r)))))) got)

let test_front_end_errors () =
  let run = profiling_front_end () in
  List.iter
    (fun (src, expected) ->
      let r = run src in
      let msg = if r.tree = "" then r.tokens else r.tree in
      Alcotest.(check string) (Printf.sprintf "error for %S" src) expected msg)
    front_end_errors

(* The read sequence spelled out for three short inputs: [advance]
   re-reads the byte it steps over, a lone '/' costs a [peek] and two
   [peek2]s, a punctuator reads [peek2] before it settles on one
   character, and a number tail or a comment close reads [peek] before
   [peek2]. *)
let test_front_end_read_sequence () =
  let run = profiling_front_end () in
  Alcotest.(check (list int)) "a/b"
    [ 0; 0; 0; 0; 1; 1; 2; 2; 1; 2; 1; 2; 2; 2; 2 ] (run "a/b").reads;
  Alcotest.(check (list int)) "1.5;"
    [ 0; 0; 0; 0; 1; 1; 2; 1; 2; 2; 3; 3; 3; 3; 3 ] (run "1.5;").reads;
  Alcotest.(check (list int)) "/**/" [ 0; 1; 1; 0; 1; 2; 3; 2; 3 ] (run "/**/").reads

(* --- Arithmetic and operators --- *)

let test_arithmetic () =
  check_num "precedence" 14.0 "2 + 3 * 4;";
  check_num "parens" 20.0 "(2 + 3) * 4;";
  check_num "division" 2.5 "5 / 2;";
  check_num "modulo" 1.0 "7 % 3;";
  check_num "unary minus" (-6.0) "-2 * 3;";
  check_num "ternary" 10.0 "1 < 2 ? 10 : 20;";
  check_num "logical and" 0.0 "0 && 5;";
  check_num "logical or" 7.0 "0 || 7;";
  check_num "comparisons" 2.0 "(1 < 2) + (2 <= 2) + (3 > 4) + (1 == 1) + (1 != 1) - 1;"

let test_string_ops () =
  check_str "concat" "ab3" "'a' + 'b' + 3;";
  check_num "length" 5.0 "'hello'.length;";
  check_num "charCodeAt" 104.0 "'hi'.charCodeAt(0);";
  check_str "substring" "ell" "'hello'.substring(1, 4);";
  check_num "indexOf hit" 2.0 "'hello'.indexOf('ll');";
  check_num "indexOf miss" (-1.0) "'hello'.indexOf('z');";
  check_str "fromCharCode" "AB" "String.fromCharCode(65, 66);";
  check_str "upper" "HI" "'hi'.toUpperCase();";
  check_str "split+join" "a-b-c" "'a,b,c'.split(',').join('-');"

let test_arrays () =
  check_num "literal + index" 30.0 "var a = [10, 20, 30]; a[2];";
  check_num "push returns length" 4.0 "var a = [1,2,3]; a.push(9);";
  check_num "pop" 3.0 "var a = [1,2,3]; a.pop();";
  check_num "length grows" 11.0 "var a = new Array(10); a[10] = 5; a.length;";
  check_num "store + load" 42.0 "var a = new Array(3); a[1] = 42; a[1];";
  check_str "join" "1,2,3" "[1,2,3].join(',');";
  check_num "indexOf" 1.0 "[5,6,7].indexOf(6);";
  check_num "out of range read is null" 1.0 "var a = [1]; a[5] == null ? 1 : 0;"

let test_objects () =
  check_num "literal + member" 7.0 "var o = {a: 7, b: 2}; o.a;";
  check_num "assign member" 9.0 "var o = {}; o.x = 9; o.x;";
  check_num "index by string" 3.0 "var o = {k: 3}; o['k'];";
  check_num "missing is null" 1.0 "var o = {}; o.nope == null ? 1 : 0;";
  check_num "nested" 5.0 "var o = {inner: {v: 5}}; o.inner.v;"

let test_functions_and_closures () =
  check_num "function decl" 120.0
    "function fact(n) { if (n < 2) { return 1; } return n * fact(n - 1); } fact(5);";
  check_num "closure captures" 15.0
    "function adder(n) { return function(x) { return x + n; }; } var add5 = adder(5); add5(10);";
  check_num "function literal" 9.0 "var sq = function(x) { return x * x; }; sq(3);";
  check_num "missing args are null" 1.0 "function f(a, b) { return b == null ? 1 : 0; } f(1);";
  check_num "object method" 8.0 "var o = {f: function(x) { return x * 2; }}; o.f(4);"

let test_control_flow () =
  check_num "while" 45.0 "var s = 0; var i = 0; while (i < 10) { s = s + i; i = i + 1; } s;";
  check_num "for" 45.0 "var s = 0; for (var i = 0; i < 10; i = i + 1) { s += i; } s;";
  check_num "break" 5.0 "var i = 0; while (true) { if (i == 5) { break; } i = i + 1; } i;";
  check_num "continue" 25.0
    "var s = 0; for (var i = 0; i < 10; i = i + 1) { if (i % 2 == 0) { continue; } s += i; } s;";
  check_num "else if" 2.0 "var x = 5; var r = 0; if (x < 3) { r = 1; } else if (x < 7) { r = 2; } else { r = 3; } r;";
  check_num "compound assign" 14.0 "var x = 2; x += 3; x *= 4; x -= 6; x;"

let test_bitwise_ops () =
  check_num "and" 8.0 "12 & 10;";
  check_num "or" 14.0 "12 | 10;";
  check_num "xor" 6.0 "12 ^ 10;";
  check_num "shl" 48.0 "12 << 2;";
  check_num "shr" 3.0 "12 >> 2;";
  check_num "shr negative" (-2.0) "-8 >> 2;";
  check_num "not" (-13.0) "~12;";
  check_num "wrap32" 0.0 "(4294967296 | 0);";
  check_num "wrap32 high bit" (-2147483648.0) "(2147483648 | 0);";
  check_num "precedence vs cmp" 1.0 "(1 & 3) == 1 ? 1 : 0;";
  check_num "shift binds tighter than and" 4.0 "1 << 2 & 12;"

(* --- ToInt32 ---

   The bitwise operators convert through ToInt32.  The formula the
   evaluator used before its integral fast path is kept here as the
   reference: every number must convert exactly as it says. *)

let ref_to_i32 f =
  let wrap32 x =
    let m = x land 0xFFFFFFFF in
    if m >= 0x80000000 then m - 0x100000000 else m
  in
  if Float.is_nan f || Float.is_integer f = false then wrap32 (int_of_float f)
  else wrap32 (int_of_float (Float.rem f 4294967296.0))

(* [x | 0], [~x] and [x << 1] for [x = f], through a global set from the
   host: the exact float reaches the operator, no literal in between. *)
let to_i32_engine = lazy (fresh_engine ())

let int32_views f =
  let e = Lazy.force to_i32_engine in
  Engine.Eval.set_global (Engine.evaluator e) "x" (Engine.Value.Num f);
  match Engine.eval_string e "[x | 0, ~x, x << 1];" with
  | Engine.Value.Arr a ->
    List.init 3 (fun i ->
        match Engine.Value.arr_get (Engine.heap e) a i with
        | Engine.Value.Num r -> r
        | _ -> Float.nan)
  | _ -> []

let expected_views f =
  let wrap x = float_of_int (ref_to_i32 (float_of_int x)) in
  let i = ref_to_i32 f in
  [ float_of_int i; wrap (lnot i); wrap (i lsl 1) ]

let to_i32_agrees f = List.equal Float.equal (int32_views f) (expected_views f)

let test_to_i32_edges () =
  let p k = Float.ldexp 1.0 k in
  List.iter
    (fun f ->
      Alcotest.(check (list (float 0.0))) (Printf.sprintf "%h" f) (expected_views f) (int32_views f))
    ([ 0.0; -0.0; 1.0; -1.0; 0.75; -0.5; -1.5; -2147483648.5; -4294967296.25; Float.infinity;
       Float.neg_infinity; Float.nan ]
    @ List.concat_map
        (fun k ->
          (* the next doubles above 2^k and below -2^k, and one with odd low bits *)
          let step = p (max 0 (k - 52)) in
          [ p k; -.p k; p k -. 1.0; -.p k +. 1.0; p k +. step; -.p k -. step; p k +. (3.0 *. step) ])
        [ 31; 32; 53; 62; 63; 64 ])

let prop_to_i32 =
  let gen =
    QCheck.Gen.(
      oneof
        [
          float;
          map float_of_int int;
          map2 (fun i k -> Float.ldexp (float_of_int i) k) small_signed_int (int_range 0 70);
          map (fun f -> Float.trunc f) float;
          (* full 53-bit mantissas from 2^52 to 2^73, either sign *)
          map3
            (fun m k neg -> Float.ldexp (float_of_int (if neg then -m else m)) k)
            (int_range (1 lsl 52) ((1 lsl 53) - 1))
            (int_range 0 21) bool;
        ])
  in
  QCheck.Test.make ~count:500 ~name:"ToInt32 fast path matches the reference formula"
    (QCheck.make ~print:(Printf.sprintf "%h") gen)
    to_i32_agrees

let test_extended_builtins () =
  check_num "parseInt" 42.0 "parseInt('42.9');";
  check_num "parseFloat" 2.5 "parseFloat('2.5');";
  check_num "isNaN" 1.0 "isNaN('zzz') ? 1 : 0;";
  check_str "typeof" "string" "typeof('x');";
  check_num "Math.trunc" (-3.0) "Math.trunc(-3.7);";
  check_num "Math.sign" (-1.0) "Math.sign(-9);";
  check_num "Math.hypot" 5.0 "Math.hypot(3, 4);";
  check_str "slice" "ell" "'hello'.slice(1, 4);";
  check_str "slice negative" "lo" "'hello'.slice(-2, 99);";
  check_str "trim" "hi" "'  hi  '.trim();";
  check_num "startsWith" 1.0 "'hello'.startsWith('he') ? 1 : 0;";
  check_str "replace" "hxllo" "'hello'.replace('e', 'x');";
  check_str "replace miss" "hello" "'hello'.replace('z', 'x');"

let test_higher_order_arrays () =
  check_str "map" "[2,4,6]" "[1,2,3].map(function(x) { return x * 2; });";
  check_str "filter" "[2,4]" "[1,2,3,4].filter(function(x) { return x % 2 == 0; });";
  check_num "reduce" 10.0 "[1,2,3,4].reduce(function(a, b) { return a + b; }, 0);";
  check_str "sort" "[1,2,5,9]" "var a = [5,1,9,2]; a.sort(); a;";
  check_str "reverse" "[3,2,1]" "[1,2,3].reverse();";
  check_str "slice array" "[20,30]" "[10,20,30,40].slice(1, 3);";
  check_str "concat" "[1,2,3,4]" "[1,2].concat([3,4]);";
  check_str "fill" "[7,7,7]" "new Array(3).fill(7);";
  (* map over a closure capturing its environment *)
  check_num "map with capture" 60.0
    "function scale(k) { return function(x) { return x * k; }; } [1,2,3].map(scale(10)).reduce(function(a,b) { return a + b; }, 0);"

let test_math_and_random () =
  check_num "floor" 3.0 "Math.floor(3.7);";
  check_num "sqrt" 5.0 "Math.sqrt(25);";
  check_num "pow" 8.0 "Math.pow(2, 3);";
  check_num "min/max" 7.0 "Math.min(9, 7) + Math.max(-1, 0);";
  (* Math.random is deterministic per seed. *)
  let run seed =
    let e = fresh_engine ~seed () in
    Engine.eval_string e "Math.random();"
  in
  Alcotest.(check bool) "seeded random deterministic" true (run 7 = run 7);
  Alcotest.(check bool) "different seeds differ" true (run 7 <> run 8)

let test_json_roundtrip () =
  check_str "stringify" {|{"a":[1,2,"x"]}|} "JSON.stringify({a: [1, 2, 'x']});";
  check_num "parse" 42.0 "var v = JSON.parse('{\"k\": [41, 42]}'); v.k[1];";
  check_num "roundtrip" 3.0
    "var v = JSON.parse(JSON.stringify({list: [1,2,3]})); v.list.length;"

let test_print_output () =
  let e = fresh_engine () in
  ignore (Engine.eval_string e "print('hello', 42); print([1,2]);");
  Alcotest.(check (list string)) "output" [ "hello 42"; "[1,2]" ] (Engine.take_output e)

let test_runtime_errors () =
  let e = fresh_engine () in
  List.iter
    (fun (src, what) ->
      Alcotest.(check bool) what true
        (match Engine.eval_string e src with
        | exception Engine.Eval.Script_error _ -> true
        | _ -> false))
    [
      ("nope;", "undefined variable");
      ("var a = [1]; a[7] = 0;", "sparse store rejected");
      ("var x = 4; x(1);", "not callable");
      ("null.f();", "method on null");
      ("Math.frobnicate(1);", "unknown Math fn");
    ]

let test_fuel_exhaustion () =
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
  let e = Engine.create ~fuel:10_000 env in
  Alcotest.(check bool) "infinite loop stopped" true
    (match Engine.eval_string e "while (true) { }" with
    | exception Engine.Eval.Script_error _ -> true
    | _ -> false)

let test_engine_data_lives_in_mu () =
  let e = fresh_engine () in
  (match Engine.eval_string e "[1,2,3];" with
  | Engine.Value.Arr a ->
    Alcotest.(check bool) "array buffer in MU" true (Vmm.Layout.in_untrusted a.Engine.Value.a_buf)
  | _ -> Alcotest.fail "expected array");
  match Engine.eval_string e "'some string';" with
  | Engine.Value.Str s ->
    Alcotest.(check bool) "string bytes in MU" true (Vmm.Layout.in_untrusted s.Engine.Value.s_addr)
  | _ -> Alcotest.fail "expected string"

let test_host_functions () =
  let e = fresh_engine () in
  let heap = Engine.heap e in
  Engine.register_host e "hostDouble" (fun args ->
      match args with
      | [ Engine.Value.Num f ] -> Engine.Value.Num (2.0 *. f)
      | _ -> Alcotest.fail "bad args");
  Engine.register_host e "hostGreet" (fun _ -> Engine.Value.str_of_string heap "hi");
  Alcotest.(check (float 0.0)) "host call" 42.0
    (match Engine.eval_string e "hostDouble(21);" with
    | Engine.Value.Num f -> f
    | _ -> Alcotest.fail "num");
  Alcotest.(check string) "host string" "hi!"
    (Engine.Value.to_display_string heap (Engine.eval_string e "hostGreet() + '!';"))

let test_host_function_as_value () =
  let e = fresh_engine () in
  Engine.register_host e "hostInc" (fun args ->
      match args with
      | [ Engine.Value.Num f ] -> Engine.Value.Num (f +. 1.0)
      | _ -> Alcotest.fail "bad args");
  check_num "host passed around" 0.0 "0;";
  Alcotest.(check (float 0.0)) "indirect host call" 6.0
    (match
       Engine.eval_string e
         "function apply(f, x) { return f(x); } apply(hostInc, 5);"
     with
    | Engine.Value.Num f -> f
    | _ -> Alcotest.fail "num")

let test_nan_boxing_roundtrip () =
  let e = fresh_engine () in
  let heap = Engine.heap e in
  let values =
    [
      Engine.Value.Null;
      Engine.Value.Bool true;
      Engine.Value.Bool false;
      Engine.Value.Num 0.0;
      Engine.Value.Num (-1.5);
      Engine.Value.Num Float.nan;
      Engine.Value.Num Float.infinity;
      Engine.Value.str_of_string heap "xyz";
      Engine.Value.arr_make heap 2;
      Engine.Value.obj_make heap;
      Engine.Value.Handle 99;
    ]
  in
  (* An array slot is a NaN-boxed word in machine memory. *)
  let slots = match Engine.Value.arr_make heap 1 with Engine.Value.Arr a -> a | _ -> assert false in
  List.iter
    (fun v ->
      Engine.Value.arr_set heap slots 0 v;
      let v' = Engine.Value.arr_get heap slots 0 in
      match (v, v') with
      | Engine.Value.Num f, Engine.Value.Num f' ->
        Alcotest.(check bool) "num round-trip" true
          (Float.is_nan f && Float.is_nan f' || f = f')
      | a, b -> Alcotest.(check bool) "identity round-trip" true (a == b || a = b))
    values

(* --- Slot encoding ---

   A slot moves as a 7-byte and a 1-byte checked access.  The reference
   is the path slots took through a float: the NaN-boxed bits
   ([ref_box_bits]) as a float, stored and loaded by the composition the
   machine's f64 accessors made ([ref_write_f64]/[ref_read_f64]), and
   decoded by [ref_unbox]. *)

let ref_with_tag tag payload = Int64.(logor (shift_left (of_int tag) 48) (of_int payload))

(* [refs] is the boxed-reference table as the heap fills it: a fresh
   heap numbers its references 0, 1, 2, ... in store order. *)
let ref_box_bits refs v =
  match v with
  | Engine.Value.Num f -> if Float.is_nan f then 0x7FF8_0000_0000_0000L else Int64.bits_of_float f
  | Engine.Value.Null -> ref_with_tag 0xFFF2 0
  | Engine.Value.Bool false -> ref_with_tag 0xFFF2 1
  | Engine.Value.Bool true -> ref_with_tag 0xFFF2 2
  | _ ->
    refs := !refs @ [ v ];
    ref_with_tag 0xFFF1 (List.length !refs - 1)

let ref_unbox refs bits =
  let tag = Int64.(to_int (shift_right_logical bits 48)) in
  let payload = Int64.(to_int (logand bits 0xFFFF_FFFF_FFFFL)) in
  if tag = 0xFFF1 then List.nth refs payload
  else if tag = 0xFFF2 then
    match payload with 0 -> Engine.Value.Null | 1 -> Engine.Value.Bool false | _ -> Engine.Value.Bool true
  else Engine.Value.Num (Int64.float_of_bits bits)

let ref_write_f64 m addr f =
  let bits = Int64.bits_of_float f in
  Sim.Machine.write_u56 m addr Int64.(to_int (logand bits 0xFF_FFFF_FFFF_FFFFL));
  Sim.Machine.write_u8 m (addr + 7) Int64.(to_int (logand (shift_right_logical bits 56) 0xFFL))

let ref_read_f64 m addr =
  let low = Sim.Machine.read_u56 m addr in
  let high = Sim.Machine.read_u8 m (addr + 7) in
  Int64.float_of_bits Int64.(logor (of_int low) (shift_left (of_int high) 56))

let same_value a b =
  match (a, b) with
  | Engine.Value.Num x, Engine.Value.Num y -> Int64.bits_of_float x = Int64.bits_of_float y
  | (Engine.Value.Null | Engine.Value.Bool _), _ -> a = b
  | _ -> a == b

(* A fresh engine and a one-slot array: two calls give the same address,
   cycles and TLB state. *)
let slot_fixture () =
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
  let e = Engine.create env in
  let heap = Engine.heap e in
  let a = match Engine.Value.arr_make heap 1 with Engine.Value.Arr a -> a | _ -> assert false in
  (heap, Pkru_safe.Env.machine env, a)

(* What one access sequence costs: cycles, TLB hits, TLB misses. *)
let measured m f =
  let cycles () = Sim.Machine.cycles m and tlb () = Sim.Machine.tlb_stats m in
  let c0 = cycles () and t0 = tlb () in
  let r = f () in
  let t1 = tlb () in
  (r, (cycles () - c0, t1.Sim.Tlb.hits - t0.Sim.Tlb.hits, t1.Sim.Tlb.misses - t0.Sim.Tlb.misses))

let test_slot_encoding () =
  let heap, m, a = slot_fixture () in
  let _, m_ref, a_ref = slot_fixture () in
  let addr = a.Engine.Value.a_buf in
  Alcotest.(check int) "fixtures agree" addr a_ref.Engine.Value.a_buf;
  let cost = m.Sim.Machine.cpu.Sim.Cpu.cost in
  let bits = Int64.float_of_bits in
  let values =
    [
      ("nan", Engine.Value.Num Float.nan);
      ("-nan", Engine.Value.Num (Float.neg Float.nan));
      ("signalling nan", Engine.Value.Num (bits 0x7FF0_0000_0000_0001L));
      ("nan with the reference tag", Engine.Value.Num (bits 0xFFF1_0000_0000_0000L));
      ("nan with the immediate tag", Engine.Value.Num (bits 0xFFF2_0000_0000_0002L));
      ("0", Engine.Value.Num 0.0);
      ("-0", Engine.Value.Num (-0.0));
      ("inf", Engine.Value.Num Float.infinity);
      ("-inf", Engine.Value.Num Float.neg_infinity);
      ("subnormal", Engine.Value.Num (bits 1L));
      ("-subnormal", Engine.Value.Num (bits 0x800F_FFFF_FFFF_FFFFL));
      ("max_float", Engine.Value.Num Float.max_float);
      ("-max_float", Engine.Value.Num (-.Float.max_float));
      ("1.5", Engine.Value.Num 1.5);
      ("null", Engine.Value.Null);
      ("false", Engine.Value.Bool false);
      ("true", Engine.Value.Bool true);
      ("string", Engine.Value.str_of_string heap "xyz");
      ("array", Engine.Value.arr_make heap 2);
      ("object", Engine.Value.obj_make heap);
      ("function", Engine.Value.Fun 3);
      ("host", Engine.Value.Host "print");
      ("handle", Engine.Value.Handle 99);
    ]
  in
  let refs = ref [] in
  List.iter
    (fun (name, v) ->
      let (), store = measured m (fun () -> Engine.Value.arr_set heap a 0 v) in
      let (), store_ref = measured m_ref (fun () -> ref_write_f64 m_ref addr (bits (ref_box_bits refs v))) in
      Alcotest.(check string) (name ^ ": bytes") (Sim.Machine.priv_read_string m_ref addr 8)
        (Sim.Machine.priv_read_string m addr 8);
      let v', load = measured m (fun () -> Engine.Value.arr_get heap a 0) in
      let v_ref, load_ref =
        measured m_ref (fun () -> ref_unbox !refs (Int64.bits_of_float (ref_read_f64 m_ref addr)))
      in
      Alcotest.(check bool) (name ^ ": the old path's value") true (same_value v_ref v');
      let expected = match v with Engine.Value.Num f when Float.is_nan f -> Engine.Value.Num Float.nan | v -> v in
      Alcotest.(check bool) (name ^ ": round-trip") true
        (match (expected, v') with
        | Engine.Value.Num x, Engine.Value.Num y when Float.is_nan x -> Float.is_nan y
        | _ -> same_value expected v');
      let triple = Alcotest.(triple int int int) in
      Alcotest.check triple (name ^ ": store cycles, TLB hits, misses") store_ref store;
      Alcotest.check triple (name ^ ": load cycles, TLB hits, misses") load_ref load;
      let c, _, _ = store and c', _, _ = load in
      Alcotest.(check (pair int int)) (name ^ ": 2 stores, 2 loads")
        (2 * cost.Sim.Cost.store, 2 * cost.Sim.Cost.load) (c, c'))
    values;
  Alcotest.(check int) "every NaN stored canonical" 0
    (List.length
       (List.filter
          (fun (_, v) ->
            match v with
            | Engine.Value.Num f when Float.is_nan f ->
              Engine.Value.arr_set heap a 0 v;
              Sim.Machine.priv_read_string m addr 8 <> "\x00\x00\x00\x00\x00\x00\xf8\x7f"
            | _ -> false)
          values))

(* Any 64-bit pattern written raw through the old path reads back as the
   old path decoded it.  Reference tags carry an index the heap has
   boxed. *)
let prop_slot_patterns =
  let fixture =
    lazy
      (let heap, m, a = slot_fixture () in
       let refs = ref [] in
       List.iter
         (fun v ->
           Engine.Value.arr_set heap a 0 v;
           ignore (ref_box_bits refs v))
         [ Engine.Value.str_of_string heap "r"; Engine.Value.Handle 7; Engine.Value.Fun 1; Engine.Value.Host "h" ];
       (heap, m, a, !refs))
  in
  QCheck.Test.make ~count:500 ~name:"slot reads = the old path on raw 64-bit patterns"
    QCheck.(pair int64 (int_bound 3))
    (fun (raw, shape) ->
      let heap, m, a, refs = Lazy.force fixture in
      let low48 = Int64.logand raw 0xFFFF_FFFF_FFFFL in
      let bits =
        match shape with
        | 0 -> raw
        | 1 -> ref_with_tag 0xFFF1 (Int64.to_int low48)
        | 2 -> Int64.logor 0xFFF2_0000_0000_0000L (Int64.logand raw 3L)
        | _ -> Int64.logor 0x7FF0_0000_0000_0000L raw (* the NaN and infinity space *)
      in
      (* a reference tag indexes the references boxed so far *)
      let bits =
        if Int64.shift_right_logical bits 48 = 0xFFF1L then
          ref_with_tag 0xFFF1 (Int64.to_int (Int64.logand bits 0xFFFF_FFFF_FFFFL) mod List.length refs)
        else bits
      in
      let addr = a.Engine.Value.a_buf in
      ref_write_f64 m addr (Int64.float_of_bits bits);
      let old = ref_unbox refs (Int64.bits_of_float (ref_read_f64 m addr)) in
      same_value old (Engine.Value.arr_get heap a 0))

let test_values_survive_array_storage () =
  (* Mixed-type array contents survive the NaN-boxed machine slots. *)
  check_str "mixed array" "[1.5,x,true,null,[2]]"
    "var a = [1.5, 'x', true, null, [2]]; a;"

let test_gc_reclaims_garbage () =
  let e = fresh_engine () in
  let heap = Engine.heap e in
  ignore
    (Engine.eval_string e
       {|
var keep = [1, "kept string", {k: [2, 3]}];
for (var i = 0; i < 50; i = i + 1) {
  var junk = "temporary " + i;
  var arr = [i, i + 1, junk];
}
var keeper = function(x) { return keep[0] + x; };
|});
  let before = Engine.Value.owned_count heap in
  let freed = Engine.collect e in
  let after = Engine.Value.owned_count heap in
  Alcotest.(check bool) (Printf.sprintf "garbage freed (%d)" freed) true (freed > 40);
  Alcotest.(check int) "registry shrank accordingly" (before - freed) after;
  (* Everything reachable still works after collection. *)
  Alcotest.(check string) "kept data intact" "kept string"
    (Engine.Value.to_display_string heap (Engine.eval_string e "keep[1];"));
  Alcotest.(check (float 0.0)) "closure + captured array intact" 8.0
    (match Engine.eval_string e "keeper(7);" with
    | Engine.Value.Num f -> f
    | _ -> Alcotest.fail "num");
  Alcotest.(check (float 0.0)) "nested object intact" 3.0
    (match Engine.eval_string e "keep[2].k[1];" with
    | Engine.Value.Num f -> f
    | _ -> Alcotest.fail "num")

let test_gc_handles_cycles () =
  let e = fresh_engine () in
  ignore
    (Engine.eval_string e
       {|
var a = {};
var b = {back: a};
a.fwd = b;
var cyclic_array = [];
cyclic_array.push(cyclic_array);
|});
  (* Reachable cycles survive (the only garbage so far is the script
     source buffer itself). *)
  let freed_live = Engine.collect e in
  Alcotest.(check bool) (Printf.sprintf "only scratch freed (%d)" freed_live) true
    (freed_live <= 2);
  Alcotest.(check (float 0.0)) "cycle still intact" 1.0
    (match Engine.eval_string e "a.fwd.back == a ? 1 : 0;" with
    | Engine.Value.Num f -> f
    | _ -> Alcotest.fail "num");
  (* ...unreachable cycles are collected. *)
  ignore (Engine.eval_string e "a = null; b = null; cyclic_array = null;");
  let freed = Engine.collect e in
  Alcotest.(check bool) (Printf.sprintf "cycle reclaimed (%d)" freed) true (freed >= 3)

let test_gc_never_frees_foreign_buffers () =
  (* Strings handed to the engine by the browser are not engine-owned:
     collection must leave them alone even when unreachable. *)
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
  let b = Browser.create env in
  Browser.load_page b {|<div data="browser-owned">x</div>|};
  ignore
    (Browser.exec_script b
       {|var v = domGetAttribute(domQueryTag("div")[0], "data"); v = null;|});
  let engine = Browser.engine b in
  ignore (Engine.collect engine);
  (* The browser can still read its buffer through a fresh getter. *)
  ignore (Browser.exec_script b {|print(domGetAttribute(domQueryTag("div")[0], "data"));|});
  Alcotest.(check (list string)) "attribute intact" [ "browser-owned" ] (Browser.console b)

let suite =
  [
    Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer line numbers" `Quick test_lexer_line_numbers;
    Alcotest.test_case "lexer errors" `Quick test_lexer_errors;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    Alcotest.test_case "front-end oracle" `Quick test_front_end_oracle;
    Alcotest.test_case "front-end error messages" `Quick test_front_end_errors;
    Alcotest.test_case "front-end read sequence" `Quick test_front_end_read_sequence;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "string ops" `Quick test_string_ops;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "objects" `Quick test_objects;
    Alcotest.test_case "functions + closures" `Quick test_functions_and_closures;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "bitwise ops" `Quick test_bitwise_ops;
    Alcotest.test_case "ToInt32 edge values" `Quick test_to_i32_edges;
    QCheck_alcotest.to_alcotest prop_to_i32;
    Alcotest.test_case "extended builtins" `Quick test_extended_builtins;
    Alcotest.test_case "higher-order arrays" `Quick test_higher_order_arrays;
    Alcotest.test_case "math + seeded random" `Quick test_math_and_random;
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "print output" `Quick test_print_output;
    Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
    Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
    Alcotest.test_case "engine data in MU" `Quick test_engine_data_lives_in_mu;
    Alcotest.test_case "host functions" `Quick test_host_functions;
    Alcotest.test_case "host function as value" `Quick test_host_function_as_value;
    Alcotest.test_case "nan-boxing round-trip" `Quick test_nan_boxing_roundtrip;
    Alcotest.test_case "mixed arrays survive slots" `Quick test_values_survive_array_storage;
    Alcotest.test_case "slot encoding = the float path" `Quick test_slot_encoding;
    QCheck_alcotest.to_alcotest prop_slot_patterns;
    Alcotest.test_case "gc reclaims garbage" `Quick test_gc_reclaims_garbage;
    Alcotest.test_case "gc handles cycles" `Quick test_gc_handles_cycles;
    Alcotest.test_case "gc spares foreign buffers" `Quick test_gc_never_frees_foreign_buffers;
  ]
