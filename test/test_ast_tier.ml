(* The AST tier's contract: it compiles each program once into closures,
   and those closures must tick, charge and order side effects exactly as
   a tree walk of the same AST.  Pins evaluation order, the double
   evaluation of compound-assignment targets, variable resolution against
   dynamic declaration order and late shadowing, step counts (fuel), the
   fleet's yield points on a bare engine, the fast-tier-only IC counters,
   scoping cases on the AST and threaded tiers, staged scripts whose
   identifiers change binding or whose property sites see new shapes
   between runs (under [mpk]), property sites against the bytecode tier
   on random programs, and golden cycles / transitions / output digests
   for every registered benchmark under [base]. *)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let fresh_engine ?fuel () =
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
  (env, Engine.create ?fuel env)

(* Runs [src] on the AST tier: display of the result (or the error),
   steps, cycles. *)
let run ?fuel src =
  let env, engine = fresh_engine ?fuel () in
  let v = try Ok (Engine.eval_string engine src) with Engine.Eval.Script_error msg -> Error msg in
  let steps = Engine.Eval.steps (Engine.evaluator engine) in
  let cycles = Pkru_safe.Env.cycles env in
  (* rendering a string result reads machine memory, so it comes last *)
  let result =
    match v with
    | Ok v -> Engine.Value.to_display_string (Engine.heap engine) v
    | Error msg -> "error: " ^ msg
  in
  (result, steps, cycles, engine)

let order_src =
  {|var log = "";
function f() { log = log + "f"; return 1; }
function g() { log = log + "g"; return 2; }
var s = f() + g();
log + s;|}

let double_src =
  {|var n = 0;
function i() { n = n + 1; return n - 1; }
var a = [5, 7];
a[i()] += 1;
a.join(",") + ";" + n;|}

(* [x] and [y] are declared in a different order on each path, in the
   same function scope. *)
let branches_src =
  {|function h(flag) {
  if (flag) { var x = 1; var y = 2; } else { var y = 10; var x = 20; }
  return x * 100 + y;
}
var acc = 0;
for (var k = 0; k < 40; k = k + 1) { acc = acc + h(k % 3 == 0); }
acc;|}

(* [inner]'s read of [v] is cached on outer's scope, then a new [var v]
   lands in that intermediate scope; the loop's read of the global [w] is
   cached on the loop scope, then [var w] shadows it there. *)
let shadow_src =
  {|var v = 1;
function outer() {
  function inner() { return v; }
  var r = 0;
  for (var j = 0; j < 3; j = j + 1) { r = r * 10 + inner(); }
  var v = 2;
  for (var j = 0; j < 3; j = j + 1) { r = r * 10 + inner(); }
  return r;
}
var s = 0; var w = 1;
for (var k = 0; k < 5; k = k + 1) { s = s + w; if (k == 2) { var w = 100; } }
outer() + "/" + s;|}

(* Declarations in [while], [if], [for] and block bodies: each lands in
   the scope its statement runs in, which the compiled variable sites rely
   on to skip probes of scopes that can never bind a name. *)
let nested_src =
  {|var g = 1;
function k(n) {
  var acc = 0;
  while (n > 0) { var last = n; n = n - 1; }
  if (n == 0) { function inner() { return 7; } }
  for (var q = 0; q < 3; q = q + 1) { var deep = 0; if (q == 1) { var deep = q + g; } acc = acc + deep; }
  { var inblock = 3; acc = acc + inblock + g; }
  return acc * 1000 + last * 100 + inner() + g;
}
k(4) + k(2);|}

(* Block and loop variables are not visible after their statement. *)
let unbound_src =
  {|var z0 = 0;
function f() { { var z = 1; } for (var w = 0; w < 1; w = w + 1) { } return z + w; }
f();|}

(* (name, source, result, steps, cycles), recorded from the tree walker. *)
let programs =
  [
    ("right operand first", order_src, "gf3", 27, 1809);
    ("compound target evaluated twice", double_src, "5,6;2", 41, 1787);
    ("vars declared per branch", branches_src, "53688", 1250, 4497);
    ("cached binding shadowed later", shadow_src, "111222/203", 233, 3667);
    ("declarations in nested statements", nested_src, "12216", 276, 3459);
    ("block and loop scopes end", unbound_src, "error: undefined variable w", 25, 1377);
    ("top-level expressions take no statement tick", "1; 2; 3;", "3", 3, 733);
    ("block statements tick", "{ 1; 2; 3; }", "null", 7, 765);
  ]

let test_program (name, src, result, steps, cycles) () =
  let r, s, c, _ = run src in
  Alcotest.(check string) (name ^ ": result") result r;
  Alcotest.(check int) (name ^ ": steps") steps s;
  Alcotest.(check int) (name ^ ": cycles") cycles c

(* Fuel runs out on exactly the step the walk ran out on. *)
let test_fuel () =
  let _, steps, _, _ = run branches_src in
  Alcotest.(check int) "steps" 1250 steps;
  let r, _, _, _ = run ~fuel:(steps + 1) branches_src in
  Alcotest.(check string) "fuel steps+1 suffices" "53688" r;
  let _, engine = fresh_engine ~fuel:steps () in
  (match Engine.eval_string engine branches_src with
  | _ -> Alcotest.fail "fuel = steps must run out"
  | exception Engine.Eval.Script_error msg ->
    Alcotest.(check string) "message" "script ran out of fuel" msg);
  Alcotest.(check int) "ran out at the last step" steps
    (Engine.Eval.steps (Engine.evaluator engine))

(* The fleet's yield points on a bare engine: a yield action installed
   after a first script runs after the charge of every [timeslice]-th
   tick counted from the install, and never on the tick that runs out of
   fuel, which raises on the same step as without the action.  Each case
   pins the outcome, the steps taken, and (steps, cycles) at each yield,
   recorded from a budget-counting hook called after every tick. *)
let yield_src =
  {|var s = 0;
function add(a, b) { return a + b; }
for (var i = 0; i < 60; i = i + 1) { s = add(s, i); }
s;|}

let yield_points ~fuel ~timeslice =
  let env, engine = fresh_engine ~fuel () in
  let ev = Engine.evaluator engine in
  ignore (Engine.eval_string engine "var warm = 1 + 2;");
  let fired = ref [] in
  Engine.Eval.set_yield ev ~timeslice (fun () ->
      fired := (Engine.Eval.steps ev, Pkru_safe.Env.cycles env) :: !fired);
  let outcome =
    match Engine.eval_string engine yield_src with
    | v -> Engine.Value.to_display_string (Engine.heap engine) v
    | exception Engine.Eval.Script_error msg -> "error: " ^ msg
  in
  (outcome, Engine.Eval.steps ev, List.rev !fired)

let test_yield_points () =
  List.iter
    (fun (fuel, timeslice, outcome, steps, fired) ->
      let what = Printf.sprintf "fuel %d, timeslice %d" fuel timeslice in
      let o, s, f = yield_points ~fuel ~timeslice in
      Alcotest.(check string) (what ^ ": outcome") outcome o;
      Alcotest.(check int) (what ^ ": steps") steps s;
      Alcotest.(check (list (pair int int))) (what ^ ": yields at (steps, cycles)") fired f)
    [
      ( 400,
        37,
        "error: script ran out of fuel",
        400,
        [ (41, 1606); (78, 1698); (115, 1787); (152, 1876); (189, 1965); (226, 2054); (263, 2146);
          (300, 2235); (337, 2324); (374, 2416) ] );
      (* fuel runs out on what would be the eleventh yield's tick *)
      ( 411,
        37,
        "error: script ran out of fuel",
        411,
        [ (41, 1606); (78, 1698); (115, 1787); (152, 1876); (189, 1965); (226, 2054); (263, 2146);
          (300, 2235); (337, 2324); (374, 2416) ] );
      ( 30,
        1,
        "error: script ran out of fuel",
        30,
        [ (5, 1524); (6, 1525); (7, 1526); (8, 1527); (9, 1528); (10, 1529); (11, 1530); (12, 1531);
          (13, 1532); (14, 1536); (15, 1537); (16, 1538); (17, 1539); (18, 1544); (19, 1549);
          (20, 1557); (21, 1558); (22, 1559); (23, 1562); (24, 1566); (25, 1567); (26, 1568);
          (27, 1569); (28, 1570); (29, 1574) ] );
      ( 100_000,
        97,
        "1770",
        1094,
        [ (101, 1750); (198, 1984); (295, 2227); (392, 2460); (489, 2702); (586, 2934); (683, 3167);
          (780, 3414); (877, 3644); (974, 3889); (1071, 4121) ] );
      (100_000, 1000, "1770", 1094, [ (1004, 3956) ]);
    ]

(* An unknown unary operator ticks, then fails without running its
   operand. *)
let test_unknown_unary () =
  let env, engine = fresh_engine () in
  ignore (Engine.eval_string engine "function f() { print(1); }");
  let ev = Engine.evaluator engine in
  let prog =
    [ Engine.Ast.Expr (Engine.Ast.Unary ("?", Engine.Ast.Call (Engine.Ast.Ident "f", []))) ]
  in
  (match Engine.Eval.run_program ev prog with
  | _ -> Alcotest.fail "unknown operator must fail"
  | exception Engine.Eval.Script_error msg ->
    Alcotest.(check string) "message" "unknown unary operator ?" msg);
  Alcotest.(check int) "steps" 2 (Engine.Eval.steps ev);
  Alcotest.(check int) "cycles" 822 (Pkru_safe.Env.cycles env);
  Alcotest.(check (list string)) "operand not run" [] (Engine.take_output engine)

(* [substring] clamps each argument to [0, len], a NaN to 0, then orders
   them, as JS does. *)
let test_substring_clamps () =
  List.iter
    (fun (src, expected) ->
      let r, _, _, _ = run src in
      Alcotest.(check string) src expected r)
    [
      ("'hello'.substring(1, 4);", "ell");
      ("'hello'.substring(4, 1);", "ell");
      ("'hello'.substring(-2, 3);", "hel");
      ("'hello'.substring(3, -2);", "hel");
      ("'hello'.substring(-5, -1);", "");
      ("'hello'.substring(0 / 0, 2);", "he");
      ("'hello'.substring(2, 0 / 0);", "he");
      ("'hello'.substring(1, 99);", "ello");
      ("'hello'.substring(99, 1);", "ello");
      ("'hello'.substring(7, 9);", "");
      ("'hello'.substring(1.7, 3.2);", "el");
      ("'hello'.substring('1', '3');", "el");
    ]

(* The bytecode tiers make one [Eval.func] per literal site, with no
   evaluator: a program compiled once and run on two evaluators shares
   it.  A host callback ([map]) runs its AST-tier code compiled against
   the evaluator that calls it, so each run charges only its own
   machine. *)
let test_func_shared_across_evaluators () =
  let open Engine.Ast in
  let inc = Func_lit ([ "x" ], [ Return (Some (Binary ("+", Ident "x", Num 1.0))) ]) in
  let prog = Engine.Bytecode.compile [ Expr (Method_call (Array_lit [ Num 1.0; Num 2.0 ], "map", [ inc ])) ] in
  let run_on (env, engine) =
    let v = Engine.Bytecode.run (Engine.evaluator engine) prog in
    let shown = Engine.Value.to_display_string (Engine.heap engine) v in
    (shown, Pkru_safe.Env.cycles env)
  in
  let a = fresh_engine () and b = fresh_engine () in
  let ra, ca = run_on a in
  let rb, cb = run_on b in
  Alcotest.(check string) "first evaluator" "[2,3]" ra;
  Alcotest.(check string) "second evaluator" "[2,3]" rb;
  Alcotest.(check int) "same cycles on each" ca cb;
  Alcotest.(check int) "the first machine charged nothing more" ca (Pkru_safe.Env.cycles (fst a))

(* The AST tier's variable caches do not count into [ic_stats]: the
   variable-IC counters are a fast-tier figure. *)
let test_ic_stats_untouched () =
  List.iter
    (fun (name, src, _, _, _) ->
      let _, _, _, engine = run src in
      let ic = Engine.Eval.ic_stats (Engine.evaluator engine) in
      Alcotest.(check (pair int int)) (name ^ ": ic stats") (0, 0)
        (ic.Engine.Eval.var_hits, ic.Engine.Eval.var_misses))
    programs

(* --- Scoping pins ---

   Which binding an identifier reaches, and what the walk to it costs,
   for the cases a compile-time resolution of locals has to get right.
   Each runs in a browser page (so DOM listeners work) on the AST tier
   and on the threaded tier, whose closures the AST tier runs when a host
   or a builtin calls them back.  Recorded from the per-call hash-table
   scopes that preceded static frames. *)

let scope_untaken_if =
  {|var x = 5;
function f(c) { if (c) { var x = 1; } return x; }
function g(c) { if (c) { var x = 1; } x = x + 10; return x; }
print(f(false), f(true), g(false), g(true), x);
x;|}

let scope_late_var =
  {|var y = 7; var t = "G";
function g() { var a = y; var y = 3; return a * 10 + y; }
function h() { var r = ""; for (var i = 0; i < 2; i = i + 1) { r = r + t; var t = i; } return r + t; }
print(g(), h());
y + t;|}

let scope_for_capture =
  {|function mk() {
  var fs = [];
  for (var i = 0; i < 3; i = i + 1) { var k = i * 2; fs.push(function (d) { k = k + 1; return i * 100 + k + d; }); }
  return fs;
}
var fs = mk();
var out = "";
for (var j = 0; j < fs.length; j = j + 1) { out = out + fs[j](j) + ","; }
var top = [];
for (var m = 0; m < 2; m = m + 1) { top.push(function () { return m; }); }
print(out, top[0](), top[1]());
out;|}

let scope_params =
  {|function d(a, a, b) { return a + "/" + b; }
function m(p, q) { var p2 = p; return q; }
function e(a, a) { var a = a + 1; return a; }
print(d(1, 2), d(1), d(1, 2, 3), m(5), e(1, 2));
function n(u) { return u + v; }
n(1);|}

let scope_nested_decls =
  {|function outer(c) {
  if (c) { function pick() { return "if"; } } else { function pick() { return "else"; } }
  { function blk() { return "block"; } print(blk()); }
  return pick();
}
print(outer(true), outer(false));
blk();|}

let scope_parent_late =
  {|var late = "g";
function outer() {
  function inner() { return late; }
  var r = inner();
  var late = "l";
  r = r + inner();
  late = "m";
  for (var i = 0; i < 2; i = i + 1) {
    var seen = function () { return late + i; };
    r = r + seen();
    var late = "f";
    r = r + seen();
  }
  return r + inner();
}
print(outer(), late);
late;|}

let scope_implicit_global =
  {|function s() { fresh = 42; var loc = 1; fresh = fresh + loc; for (var i = 0; i < 2; i = i + 1) { { deep = i; } } }
s();
function t2() { return fresh * 2 + deep; }
print(fresh, deep, t2());
t2();|}

let scope_callbacks =
  {|var hits = 0; var base = 10;
function onclick(ev) { var local = base; hits = hits + local; for (var i = 0; i < 2; i = i + 1) { hits = hits + i; } return hits; }
var root = domRoot();
domAddEventListener(root, "click", onclick);
domDispatchEvent(root, "click");
function run(k) { var scale = k; return [1, 2, 3].map(function (v) { var w = v * scale; return w + hits; }); }
var sq = run(3);
domDispatchEvent(root, "click");
print(hits, sq.join(","), run(2).join(","));
hits;|}

(* (name, source, [(tier, result or "error: ...", cycles, output digest)]) *)
let scoping_pins =
  [
    ( "untaken if var shadows a global",
      scope_untaken_if,
      [
        (Engine.Ast_tier, "15", 3861, "7e35b7ed506adc50cefcba6cb840b2d5");
        (Engine.Threaded_tier, "15", 3847, "7e35b7ed506adc50cefcba6cb840b2d5");
      ] );
    ( "read before a late var",
      scope_late_var,
      [
        (Engine.Ast_tier, "7G", 5085, "1e592792bf6f7a0c909854c52e4fcff7");
        (Engine.Threaded_tier, "7G", 5085, "1e592792bf6f7a0c909854c52e4fcff7");
      ] );
    ( "closures capture a for scope",
      scope_for_capture,
      [
        (Engine.Ast_tier, "305,307,309,", 6978, "1b3bb00f24002f99572e04e92b1f68fd");
        (Engine.Threaded_tier, "305,307,309,", 6958, "1b3bb00f24002f99572e04e92b1f68fd");
      ] );
    ( "duplicate and missing parameters",
      scope_params,
      [
        (Engine.Ast_tier, "error: undefined variable v", 5539, "f20d130899ceb6c9926f74e6d994550c");
        (Engine.Threaded_tier, "error: undefined variable v", 5515, "f20d130899ceb6c9926f74e6d994550c");
      ] );
    ( "function declarations in blocks and ifs",
      scope_nested_decls,
      [
        (Engine.Ast_tier, "error: undefined variable blk", 4768, "4d736a0397ad846af47c85f47a49d1a6");
        (Engine.Threaded_tier, "error: undefined variable blk", 4746, "4d736a0397ad846af47c85f47a49d1a6");
      ] );
    ( "parent var declared after the inner function",
      scope_parent_late,
      [
        (Engine.Ast_tier, "g", 6361, "43ae96cb0b6ad5e9ed1154297f5b7844");
        (Engine.Threaded_tier, "g", 6331, "43ae96cb0b6ad5e9ed1154297f5b7844");
      ] );
    ( "undeclared assignment creates a global",
      scope_implicit_global,
      [
        (Engine.Ast_tier, "87", 3976, "90499555ee23353df076751e3fab0252");
        (Engine.Threaded_tier, "87", 3975, "90499555ee23353df076751e3fab0252");
      ] );
    ( "callbacks into threaded-tier closures",
      scope_callbacks,
      [
        (Engine.Ast_tier, "22", 7109, "459fd81dd003a95f3d7fdba1a55bcbee");
        (Engine.Threaded_tier, "22", 7094, "459fd81dd003a95f3d7fdba1a55bcbee");
      ] );
  ]

let scoping_run tier src =
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
  let b = Browser.create env in
  Browser.load_page b "<html><body><div id=\"main\">hi</div></body></html>";
  let v = try Ok (Browser.exec_script ~tier b src) with Engine.Eval.Script_error msg -> Error msg in
  let cycles = Pkru_safe.Env.cycles env in
  let result =
    match v with
    | Ok v -> Engine.Value.to_display_string (Engine.heap (Browser.engine b)) v
    | Error msg -> "error: " ^ msg
  in
  (result, cycles, Digest.to_hex (Digest.string (String.concat "\n" (Browser.console b))))

let tier_name = function
  | Engine.Ast_tier -> "ast"
  | Engine.Bytecode_tier -> "bytecode"
  | Engine.Threaded_tier -> "threaded"

let test_scoping (name, src, pins) () =
  List.iter
    (fun (tier, result, cycles, digest) ->
      let r, c, d = scoping_run tier src in
      let what = name ^ " (" ^ tier_name tier ^ ")" in
      Alcotest.(check string) (what ^ ": result") result r;
      Alcotest.(check int) (what ^ ": cycles") cycles c;
      Alcotest.(check string) (what ^ ": output digest") digest d)
    pins

(* --- Staged pins ---

   Identifier sites whose binding moves between runs of the same
   compiled code: scripts run one after another on one page (a script's
   error is its result, and the next script still runs), first profiled,
   then measured under [mpk], so each case pins every script's result,
   the console, the cycles and the gate transitions. *)

(* [fresh] is read before any script declares it, from a block inside a
   [for] inside a function; a later top-level [var] declares it.
   [shade]'s second loop iteration reads its own [for]-scoped [var]
   over the global. *)
let staged_late_global =
  [
    ( Engine.Ast_tier,
      {|function probe(k) {
  var r = 0;
  for (var i = 0; i < 2; i = i + 1) { { var b = i; r = r + b * 10 + fresh; } }
  return r + k;
}
print("defined");
probe(1);|} );
    (Engine.Ast_tier, {|var fresh = 5; print(probe(1), probe(2)); probe(3);|});
    ( Engine.Ast_tier,
      {|function shade() { var r = ""; for (var i = 0; i < 2; i = i + 1) { { r = r + fresh; } var fresh = "L"; } return r; }
print(shade(), shade(), fresh);
fresh = 6;
probe(0) + shade();|} );
  ]

(* A function reads the [domGetTitle] binding, then a global [var] of
   that name shadows it, then the global is reassigned. *)
let staged_host_shadowed =
  [
    ( Engine.Ast_tier,
      {|function title() { var s = ""; for (var i = 0; i < 2; i = i + 1) { { s = s + domGetTitle(); } } return s; }
domSetTitle("T");
print(title());
var domGetTitle = function () { return "own"; };
print(title(), domGetTitle());
title();|} );
    (Engine.Ast_tier, {|domGetTitle = function () { return "re"; }; title();|});
  ]

(* [made] is created by an assignment in [make], read by [readIt]; then
   forty more globals outgrow the global table's first arrays, and both
   sites run again. *)
let staged_implicit_growth =
  let many = String.concat "\n" (List.init 40 (fun i -> Printf.sprintf "var g%d = %d;" i i)) in
  [
    ( Engine.Ast_tier,
      {|function make(v) { { made = v; } }
function readIt() { var r = 0; for (var i = 0; i < 1; i = i + 1) { { r = made; } } return r; }
make(6);
make(7);
print(readIt(), readIt());|} );
    (Engine.Ast_tier, many ^ "\nmake(8);\nprint(readIt(), g39);\nmade = 9;\nreadIt() + made;");
  ]

(* [cap] is read two functions down from [outer]; [middle] declares its
   own [cap] after making the reader, and so does [outer] after the
   first call of [middle]. *)
let staged_captured_two_up =
  [
    ( Engine.Ast_tier,
      {|var cap = "g";
function outer() {
  function middle() {
    var f = function () { var r = ""; for (var i = 0; i < 1; i = i + 1) { { r = r + cap; } } return r; };
    var a = f();
    var cap = "m";
    return a + f();
  }
  var x = middle();
  var cap = "o";
  return x + middle() + cap;
}
print(outer(), cap);
cap = "h";
outer();|} );
  ]

(* A listener made inside a threaded-tier call and fired, on the AST
   tier, by [domDispatchEvent] from scripts on both tiers: its reads of
   [seen] (the minting call's scope), [count] and [note] (globals) go up
   a chain the threaded tier made. *)
let staged_threaded_listener =
  [
    ( Engine.Threaded_tier,
      {|var count = 0;
function note(x) { return "t" + x; }
function install(node, tag) {
  var seen = tag;
  domAddEventListener(node, "ping", function (ev) {
    var k = 0;
    for (var i = 0; i < 2; i = i + 1) { { k = k + 1; count = count + k; } }
    print(seen, count, note(k));
  });
}
install(domRoot(), "t");
domDispatchEvent(domRoot(), "ping");
count;|} );
    ( Engine.Ast_tier,
      {|var seen = "G";
note = function (x) { return "a" + x; };
domDispatchEvent(domRoot(), "ping");
print(count, seen);
count;|} );
    (Engine.Threaded_tier, {|domDispatchEvent(domRoot(), "ping"); count;|});
  ]

(* --- Property sites ---

   Member reads and stores whose receivers change shape between runs of
   the same compiled code: functions defined in one script keep their
   sites across the scripts that follow. *)

(* Every receiver [len2] and [bump] see has one shape. *)
let staged_one_shape =
  [
    ( Engine.Ast_tier,
      {|function pt(x, y) { var p = {}; p.x = x; p.y = y; return p; }
function len2(p) { return p.x * p.x + p.y * p.y; }
function bump(p) { p.x = p.x + 1; }
var pts = [];
for (var i = 0; i < 6; i = i + 1) { pts.push(pt(i, i * 2)); }
var s = 0;
for (var i = 0; i < pts.length; i = i + 1) { s = s + len2(pts[i]); }
print(s, domGetTitle());
s;|} );
    ( Engine.Ast_tier,
      {|for (var r = 0; r < 3; r = r + 1) { for (var i = 0; i < pts.length; i = i + 1) { bump(pts[i]); } }
print(len2(pts[0]), len2(pts[5]), pt(7, 1).y);
len2(pt(1, 1)) + pts[2].x;|} );
  ]

(* [getv]/[setv] see four shapes in turn, with [v] at slots 0, 1 and 2,
   and a fifth that lacks [v]. *)
let staged_many_shapes =
  [
    ( Engine.Ast_tier,
      {|function mk(k) {
  if (k % 4 == 0) { return {v: 1, a: k}; }
  if (k % 4 == 1) { return {a: k, v: 2}; }
  if (k % 4 == 2) { return {b: 0, c: k, v: 3}; }
  var o = {}; o.v = 4; o.d = k; return o;
}
function getv(o) { return o.v; }
function setv(o, x) { o.v = x; }
var objs = [];
for (var i = 0; i < 12; i = i + 1) { objs.push(mk(i)); }
var s = "";
for (var i = 0; i < objs.length; i = i + 1) { setv(objs[i], getv(objs[i]) * 10 + i); s = s + getv(objs[i]) + ","; }
print(s);
s;|} );
    ( Engine.Ast_tier,
      {|var none = {a: 1, b: 2};
var t = "";
for (var i = 0; i < objs.length; i = i + 1) { t = t + getv(objs[i]) + getv(none) + objs[i].a + ";"; }
setv(none, 9);
print(t, getv(none), none.a, none.b, objs[3].d);
t;|} );
  ]

(* [put] first adds [tag] (to objects whose [tag] lands at slots 0, 1
   and 2), then overwrites it. *)
let staged_add_then_overwrite =
  [
    ( Engine.Ast_tier,
      {|function put(o, v) { o.tag = v; return o.tag; }
var a = {}; var b = {p: 1}; var c = {}; var d = {p: 1, q: 2};
print(put(a, "x"), put(a, "y"), put(b, "z"), put(c, "w"), put(b, "q"), put(d, "u"), put(a, "r"));
print(a.tag, b.tag, b.p, c.tag, d.q, d.tag);
a.tag + b.tag + c.tag + d.tag;|} );
    ( Engine.Ast_tier,
      {|var e = {};
print(put(e, 1), put(c, 2), put(e, 3), put(d, 4));
e.tag + c.tag + d.tag + d.p;|} );
  ]

(* [peek] reads [late] before any object has it, then after it is
   added. *)
let staged_read_before_add =
  [
    ( Engine.Ast_tier,
      {|function peek(o) { return o.late; }
var o = {early: 1};
var before = peek(o);
o.late = 5;
print(before, peek(o), o.early);
peek(o);|} );
    ( Engine.Ast_tier,
      {|var q = {early: 2};
var first = peek(q);
q.late = 7;
var r = {late: 8};
print(first, peek(q), peek(o), peek(r), peek({early: 3}));
peek(q) + peek(r);|} );
  ]

(* A method call on a property stored as [null]: the method site's error
   text, then a new function in the same slot. *)
let staged_null_method =
  [
    ( Engine.Ast_tier,
      {|var o = {n: 2};
o.f = function (k) { return k * 2; };
function callf(x) { return o.f(x); }
print(callf(3), callf(4));
callf(5);|} );
    (Engine.Ast_tier, {|o.f = null; print(o.f); callf(6);|});
    (Engine.Ast_tier, {|o.f = function (k) { return k + o.n; }; print(callf(1)); o.g();|});
    (Engine.Ast_tier, {|callf(10);|});
  ]

(* Objects from [JSON.parse], whose keys come in three orders. *)
let staged_json_objects =
  [
    ( Engine.Ast_tier,
      {|var recs = JSON.parse('[{"id": 1, "name": "a", "w": 3}, {"name": "b", "id": 2, "w": 4}, {"w": 5, "id": 3, "name": "c"}, {"id": 4, "name": "d", "w": 6}]');
function weight(r) { return r.w * r.id; }
var s = 0;
for (var i = 0; i < recs.length; i = i + 1) { s = s + weight(recs[i]); recs[i].w = recs[i].w + 1; }
print(s, JSON.stringify(recs));
s;|} );
    ( Engine.Ast_tier,
      {|var more = JSON.parse('{"id": 9, "w": 2, "extra": {"id": 5, "w": 5}}');
print(weight(more), weight(more.extra), weight(recs[2]), recs[1].name);
more.extra.w = 1;
weight(more.extra) + weight(recs[0]);|} );
  ]

(* [.length] at one read site on arrays, strings, an object that has a
   [length] property (a number, then a string) and one that lacks it,
   plus a receiver with no properties at all. *)
let staged_length =
  [
    ( Engine.Ast_tier,
      {|function len(x) { return x.length; }
var a = [1, 2, 3]; var s = "hello"; var o = {length: 7, w: 1}; var p = {w: 2};
print(len(a), len(s), len(o), len(p), a.length, s.length, o.length, p.length);
a.push(4); o.length = 9;
print(len(a), len(""), len(o), len([]), "ab".length, [5, 6].length);
len(a) + len(s) + len(o);|} );
    ( Engine.Ast_tier,
      {|var q = {w: 1, length: "x"};
print(len(q), len(a), q.length, len(o), len(s + s));
len(s) + s.length + a.length;|} );
    (Engine.Ast_tier, {|len(5);|});
  ]

(* (name, scripts, results, console, cycles, transitions) *)
let staged_pins =
  [
    ( "global read before and after its var",
      staged_late_global,
      [ "error: undefined variable fresh"; "23"; "226L" ],
      [ "defined"; "21 22"; "5L 5L 5" ],
      5217,
      6 );
    ( "host binding shadowed by a global",
      staged_host_shadowed,
      [ "ownown"; "rere" ],
      [ "TT"; "ownown own" ],
      4156,
      10 );
    ( "implicit global across table growth",
      staged_implicit_growth,
      [ "null"; "18" ],
      [ "7 7"; "8 39" ],
      6260,
      4 );
    ( "capture two functions up, shadowed late",
      staged_captured_two_up,
      [ "hmomo" ],
      [ "gmomo g" ],
      4723,
      2 );
    ( "threaded-tier listener fired by the DOM",
      staged_threaded_listener,
      [ "3"; "6"; "9" ],
      [ "t 3 t2"; "t 6 a2"; "6 G"; "t 9 a2" ],
      6031,
      28 );
    ( "one shape at a site",
      staged_one_shape,
      [ "275"; "7" ],
      [ "275 "; "9 164 1" ],
      7789,
      6 );
    ( "three or more shapes at a site",
      staged_many_shapes,
      [
        "10,21,32,43,14,25,36,47,18,29,40,51,";
        "10null0;21null1;32nullnull;43nullnull;14null4;25null5;36nullnull;47nullnull;18null8;29null9;40nullnull;51nullnull;";
      ],
      [
        "10,21,32,43,14,25,36,47,18,29,40,51,";
        "10null0;21null1;32nullnull;43nullnull;14null4;25null5;36nullnull;47nullnull;18null8;29null9;40nullnull;51nullnull; 9 1 2 3";
      ],
      19243,
      4 );
    ( "a store adds a property, then overwrites it",
      staged_add_then_overwrite,
      [ "rqwu"; "10" ],
      [ "x y z w q u r"; "r q 1 w 2 u"; "1 2 3 4" ],
      4711,
      4 );
    ( "a read before and after the property exists",
      staged_read_before_add,
      [ "5"; "15" ],
      [ "null 5 1"; "null 7 5 8 null" ],
      3153,
      4 );
    ( "a method stored as null",
      staged_null_method,
      [ "10"; "error: object has no method f"; "error: object has no method g"; "12" ],
      [ "6 8"; "null"; "3" ],
      3025,
      8 );
    ( "length on arrays, strings and objects",
      staged_length,
      [ "18"; "14"; "error: cannot read property length of number" ],
      [ "3 5 7 null 3 5 7 null"; "4 0 9 0 2 2"; "x 4 x 9 10" ],
      4827,
      6 );
    ( "objects built by JSON.parse",
      staged_json_objects,
      [ "50"; "9" ],
      [
        {|50 [{"id":1,"name":"a","w":4},{"name":"b","id":2,"w":5},{"w":6,"id":3,"name":"c"},{"id":4,"name":"d","w":7}]|};
        "18 25 18 b";
      ],
      5566,
      4 );
  ]

(* Runs [scripts] in order on one page under [mode]: each script's result
   (or error), the console, and the env. *)
let staged_run ?profile mode scripts =
  let env = ok (Pkru_safe.Env.create ?profile (Pkru_safe.Config.make mode)) in
  let b = Browser.create env in
  Browser.load_page b "<html><body><div id=\"main\">hi</div></body></html>";
  Pkru_safe.Env.reset_counters env;
  let results =
    List.map
      (fun (tier, src) ->
        match Browser.exec_script ~tier b src with
        | v -> Engine.Value.to_display_string (Engine.heap (Browser.engine b)) v
        | exception Engine.Eval.Script_error msg -> "error: " ^ msg)
      scripts
  in
  (env, results, Browser.console b)

let test_staged (name, scripts, results, console, cycles, transitions) () =
  let profiled, _, _ = staged_run Pkru_safe.Config.Profiling scripts in
  let profile = Pkru_safe.Env.recorded_profile profiled in
  let env, r, c = staged_run ~profile Pkru_safe.Config.Mpk scripts in
  Alcotest.(check (list string)) (name ^ ": results") results r;
  Alcotest.(check (list string)) (name ^ ": console") console c;
  Alcotest.(check int) (name ^ ": cycles") cycles (Pkru_safe.Env.cycles env);
  Alcotest.(check int) (name ^ ": transitions") transitions (Pkru_safe.Env.transitions env)

(* (bench, cycles, transitions, MD5 of the output lines joined by '\n'),
   each timed script run under [base] with an empty profile, recorded from
   the tree walker. *)
let bench_goldens =
  [
    ("dom-attr", 138673, 0, "23e23a25b202e2b692a0f0ab4a5c9c26");
    ("dom-modify", 162515, 0, "44e31b77d0215a853375a6a7213c2d80");
    ("dom-query", 50660, 0, "11f9fb850f56fb42ef3e3483520e9c60");
    ("dom-html", 12237, 0, "e1b255d634b07f77b974de1bbd234074");
    ("dom-traverse", 55301, 0, "3753333832b951e0fc3f5296fe030b0f");
    ("dom-style", 131529, 0, "848ac06a6c48def732f7b161562a84d1");
    ("dom-events", 54331, 0, "bb8bf82521081c626fae2266d707fb9a");
    ("v8-richards", 112976, 0, "7f75ea71254eb54f47019296657f4bd4");
    ("v8-deltablue", 451453, 0, "59730d73b3f619eee361ce90e3986867");
    ("v8-crypto", 853643, 0, "dbc1ba9e8550ec8d176f7e4d68bc7d53");
    ("v8-raytrace", 375687, 0, "c4b39eb74827d45c0a6c75b8efba5260");
    ("v8-splay", 418282, 0, "a7a50464571c01a06ce2dd112d73bd77");
    ("dromaeo-array", 876596, 0, "4dda2e218ef9f981db76207f0aa1ed88");
    ("dromaeo-string", 232354, 0, "5d6f569b67af6d1bc6057a72613c2d37");
    ("dromaeo-object", 452820, 0, "a9b65009e820638ca8c5dadeec2694af");
    ("dromaeo-regexp", 164743, 0, "809e126d3c2637f939db130ef74e9f5f");
    ("sunspider-fft", 434236, 0, "1682516d62871a80a19c941c7d6a8f8e");
    ("sunspider-bitops", 579046, 0, "307dc2f15b065c6684d08bb488103fb4");
    ("sunspider-3d", 854885, 0, "17b0acee947b7d9b2498e6187250ffc3");
    ("sunspider-controlflow", 1474662, 0, "7d6f5ad941925d1097a1d1e9c5d8cc86");
    ("sunspider-string", 173218, 0, "1752fb781a5bc64135bc518c9cbbbacf");
    ("jslib-toggle", 167843, 0, "44fdd747a4a9474715fce0a03246c098");
    ("jslib-build", 243468, 0, "82802d1e36d1b6f14d3ab0ca73ef6508");
    ("jslib-query", 40988, 0, "bcdc6d0c3c0740022460ba47bcbda087");
    ("jslib-attr", 123223, 0, "1ebce86b8cffdb9d1b5bcdaf2acd5898");
    ("jslib-select", 47566, 0, "69d19c3a46b66ffb0ef2c868549a943f");
    ("audio-fft", 942728, 0, "715f01b7eab6599600a89cde40227918");
    ("audio-beat-detection", 9817675, 0, "3ba8bdb96f3d4d83cd0cfb698c2a3c51");
    ("audio-dft", 1371401, 0, "c3d2f3b69bb248a54175c25a40017829");
    ("audio-oscillator", 601515, 0, "894e74e0f5678bac6b45658a1079a42f");
    ("imaging-gaussian-blur", 2203029, 0, "3b84fd54d566c99cc1f6d8d1cc2f93ad");
    ("imaging-darkroom", 852064, 0, "a4b02fd39eb6404054927ce5a457310b");
    ("imaging-desaturate", 747241, 0, "a36ad09891fbd4bfd141716985646d02");
    ("json-parse-financial", 1302700, 0, "c5307a30658c689f0d2ad880f0814196");
    ("json-stringify-tinderbox", 85307, 0, "3168ae185f61a0bc285dadfdccfc0502");
    ("stanford-crypto-aes", 1459775, 0, "054bc3b14edcd6ba8d79337bb2be8031");
    ("stanford-crypto-ccm", 736770, 0, "8264f81389ea6a93e33576a84ad6095e");
    ("stanford-crypto-pbkdf2", 800252, 0, "2bf9d1b745312c52524de5604221a7a2");
    ("stanford-crypto-sha256-iterative", 711646, 0, "29715e75b48c08addad8b73febc55161");
    ("ai-astar", 2777318, 0, "4a8640e760f48069e3f0afa745b3126c");
    ("Richards", 129566, 0, "4f7c8e56b38ef754359f5d5e7f68ef13");
    ("DeltaBlue", 604795, 0, "8113792a4871147cb0f1b5970a5a2e24");
    ("Crypto", 1417383, 0, "b0913d38010d7643517058917319e937");
    ("RayTrace", 526778, 0, "e7851c4962913536a84cf9f5b627db99");
    ("EarleyBoyer", 774896, 0, "6021c14c45117576b7639fb6f2668201");
    ("RegExp", 209791, 0, "c3a2c88ee4d3466d0034d51aef556f47");
    ("Splay", 518347, 0, "eacc1a573adebcd36f8636ff1b3a71aa");
    ("SplayLatency", 589876, 0, "df9ef8a8a6e6d223184f81e115173000");
    ("NavierStokes", 1483020, 0, "786b4eff0a37d152cacfbd8f2687123b");
    ("PdfJS", 1714092, 0, "fb014ce58bc761efe06a635867c5ccc9");
    ("Mandreel", 1182987, 0, "587a61574ad4283ff5cc84ed007ae548");
    ("MandreelLatency", 388823, 0, "5e1d77a0c97e042b72293362c3f9a49f");
    ("Gameboy", 1779962, 0, "3264eb88b915e3c939da6de24891628e");
    ("CodeLoad", 161417, 0, "1b7b23d2dcc65f604ea7f6393b1298db");
    ("Box2D", 1014125, 0, "3e560d754cb24056daeca2e0a415c796");
    ("zlib", 2368440, 0, "a73297f05adef609a2ca0185f59a9616");
    ("Typescript", 236238, 0, "d0f43dc68b64dae081d6b83d3e865411");
    ("3d-cube-SP", 806875, 0, "84da7db9a76d40859d57ed3a46a8f193");
    ("3d-raytrace-SP", 347456, 0, "bff05ae8f81f64d00458229e051edcde");
    ("ai-astar", 2053932, 0, "b175cb8faf08eade08dd8eaa0e8c4eec");
    ("Air", 723673, 0, "ba30d33041f0b2f54c48c2b78d4df9d5");
    ("base64-SP", 194534, 0, "72d841e6bfd20a7e4594a7f9ced91a78");
    ("Basic", 1017540, 0, "5eab583bf94632d3ccdce49be04b0b24");
    ("Box2D", 867313, 0, "44c2c04c211037d652fbd0b3a625a2f3");
    ("codeload-wtb", 133287, 0, "428e3e9541bc5b37586a52cd3da03f86");
    ("crypto", 1137315, 0, "f76b0e05da9afa6766b84dc556c18d96");
    ("crypto-aes-SP", 1099093, 0, "bf2fb0dcd68cbae8020cdf62be1048c4");
    ("crypto-md5-SP", 613052, 0, "2bf9d1b745312c52524de5604221a7a2");
    ("crypto-sha1-SP", 579046, 0, "307dc2f15b065c6684d08bb488103fb4");
    ("delta-blue", 460617, 0, "9036d1bb552e543614452ffa5be3fb20");
    ("earley-boyer", 646544, 0, "7f40fc752ee77c2333b23442676a006c");
    ("float-mm.c", 967195, 0, "a79ee1bb4071a59f9069a9655f5b873c");
    ("gaussian-blur", 1682885, 0, "adb09386fdeea94a1e1d1e6e2517ffd6");
    ("gbemu", 1499402, 0, "087afaee4fff3937d6103a3feda164b2");
    ("hash-map", 455872, 0, "ff09c019b2abdab14c16aa191b98e9c3");
    ("json-parse-inspector", 945504, 0, "d49d5c075e089ae3197b06f4739c3aa4");
    ("json-stringify-inspector", 71637, 0, "02ebe223238c7999d059646f6b5b9084");
    ("mandreel", 927115, 0, "ffc9b9d530e1cdf36cd8240f39dd0b44");
    ("navier-stokes", 1166076, 0, "90f4c89a4ed585599e01d6f6bdbb7d38");
    ("octane-code-load", 147503, 0, "4fe5ca3e4c6ca010bcae4098bec002f4");
    ("octane-zlib", 1915088, 0, "87f5e422b666c7c993b4d8f7e512bb66");
    ("pdfjs", 1512792, 0, "90a8ea06843d434d62128a18404be365");
    ("regexp", 182535, 0, "fdaad7e1e07a60e89f7d06abfd91d7ca");
    ("richards", 121675, 0, "7d23750c7cd6f10e8a4a33303b0ec925");
    ("splay", 468436, 0, "cbab608784b6bad3c4fdce188c735622");
    ("stanford-crypto-pbkdf2", 706652, 0, "2bf9d1b745312c52524de5604221a7a2");
    ("stanford-crypto-sha256", 623246, 0, "26126c03ad224c1eb679b8a77d98b3d4");
    ("string-unpack-code-SP", 213444, 0, "a7baac701b36c47bb3e2da7039f6a32e");
    ("tagcloud-SP", 647914, 0, "89b6d2e480ac7602b3c08f4e0c2e2142");
    ("typescript", 210754, 0, "f9c93d2ecf618a95d880592e1da6cb57");
    ("uglify-js-wtb", 262562, 0, "ec8cca02d815f0ee0f1d55e12d7a96d2");
    ("UniPoker", 13860, 0, "7b02466b302eac0fd8ca6f17e8628c22");
    ("WSL", 14261, 0, "cd175456bfcd90ee01446edf64ec127e");
  ]

(* Property sites against the reference tier: random programs build
   objects from a small name set in random orders, so every site below
   sees many shapes, then read, store (adding and overwriting) and call
   methods at fixed sites inside loops.  The AST tier's result and
   console must be the [Bytecode] tier's. *)
let gen_prop_program rng =
  let pick a = a.(Util.Rng.int rng (Array.length a)) in
  let names = [| "a"; "b"; "c"; "d" |] in
  let value i = if Util.Rng.int rng 3 = 0 then Printf.sprintf "\"s\" + %s" i else Printf.sprintf "%s * %d" i (1 + Util.Rng.int rng 5) in
  (* a constructor: a random subset of [names] in a random order, maybe a
     method [f] among them, by stores or by a literal *)
  let ctor k =
    let fields = Array.copy names in
    Util.Rng.shuffle rng fields;
    let fields = Array.to_list (Array.sub fields 0 (1 + Util.Rng.int rng 4)) in
    let fields = if Util.Rng.int rng 2 = 0 then "f" :: fields else fields in
    let fields = Array.of_list fields in
    Util.Rng.shuffle rng fields;
    let init n = if n = "f" then Printf.sprintf "function (x) { return x * 3 + %d; }" k else value "i" in
    if Util.Rng.int rng 3 = 0 then
      Printf.sprintf "function mk%d(i) { return {%s}; }" k
        (String.concat ", " (Array.to_list (Array.map (fun n -> n ^ ": " ^ init n) fields)))
    else
      Printf.sprintf "function mk%d(i) { var o = {}; %s return o; }" k
        (String.concat " " (Array.to_list (Array.map (fun n -> Printf.sprintf "o.%s = %s;" n (init n)) fields)))
  in
  let op () =
    let n = pick names in
    match Util.Rng.int rng 6 with
    | 0 | 1 -> Printf.sprintf "print(\"r\", o.%s);" n
    | 2 -> Printf.sprintf "o.%s = %s;" n (value "i")
    | 3 -> Printf.sprintf "o.%s = o.%s + %d;" n n (Util.Rng.int rng 9)
    | 4 -> Printf.sprintf "o.%s += 2;" n
    | _ -> "if (o.f != null) { print(\"m\", o.f(i)); }"
  in
  let nctors = 3 + Util.Rng.int rng 3 in
  String.concat "\n"
    (List.init nctors ctor
    @ [
        Printf.sprintf "function pick(i) { var k = i %% %d; %s return null; }" nctors
          (String.concat " "
             (List.init nctors (fun k -> Printf.sprintf "if (k == %d) { return mk%d(i); }" k k)));
        "var objs = [];";
        "for (var i = 0; i < 10; i = i + 1) { objs.push(pick(i * 7 % 11)); }";
        Printf.sprintf "function visit(o, i) { %s }" (String.concat " " (List.init (2 + Util.Rng.int rng 5) (fun _ -> op ())));
        "for (var r = 0; r < 3; r = r + 1) { for (var i = 0; i < objs.length; i = i + 1) { visit(objs[i], i + r); } }";
        "JSON.stringify(objs);";
      ])

let prop_sites_agree_with_bytecode =
  QCheck.Test.make ~count:60 ~name:"property sites agree with the bytecode tier"
    QCheck.(make ~print:(fun seed -> gen_prop_program (Util.Rng.create seed)) Gen.(int_bound 1_000_000))
    (fun seed ->
      let src = gen_prop_program (Util.Rng.create seed) in
      let run tier =
        let _, engine = fresh_engine () in
        let v =
          match Engine.eval_string ~tier engine src with
          | v -> Engine.Value.to_display_string (Engine.heap engine) v
          | exception Engine.Eval.Script_error msg -> "error: " ^ msg
        in
        (v, Engine.take_output engine)
      in
      run Engine.Ast_tier = run Engine.Bytecode_tier)

(* A read of a host binding's name compiled after the host was
   registered returns one [Host] value made at compile time.  Hosts are
   only added or replaced and a call looks the function up, so a
   re-registered host dispatches to its new function; a global declared
   later shadows the host; and such a read charges exactly what a read
   compiled before the registration (which probes the host table when
   it runs) does. *)
let test_host_reads () =
  let env, engine = fresh_engine () in
  let heap = Engine.heap engine in
  let eval src = Engine.Value.to_display_string heap (Engine.eval_string engine src) in
  let host n = Engine.register_host engine "h" (fun _ -> Engine.Value.Num n) in
  host 1.0;
  Alcotest.(check string) "first host" "1" (eval "function f() { return h(); } f();");
  host 2.0;
  Alcotest.(check string) "re-registered host" "2" (eval "f();");
  Alcotest.(check string) "host value" "[host h]" (eval "function g() { return h; } g();");
  Alcotest.(check string) "a later global shadows the host" "5" (eval "var h = 5; g();");
  (* [ra]'s body compiles on its first call, before [k] is a host;
     [rb]'s after. *)
  let body = "(on) { if (on) { k; k; k; return k; } return null; }" in
  ignore (eval ("function ra" ^ body ^ " ra(false);"));
  Engine.register_host engine "k" (fun _ -> Engine.Value.Null);
  ignore (eval ("function rb" ^ body ^ " rb(false);"));
  let cycles src =
    let c0 = Pkru_safe.Env.cycles env in
    let shown = eval src in
    (shown, Pkru_safe.Env.cycles env - c0)
  in
  let probed = cycles "ra(true);" in
  Alcotest.(check (pair string int)) "a compiled host read charges as a probed one" probed
    (cycles "rb(true);")

(* Matched by position: two suites each register an "ai-astar". *)
let test_bench_goldens () =
  let profile = Runtime.Profile.create () in
  let benches = Workloads.Registry.benches in
  Alcotest.(check (list string)) "every registered benchmark is pinned"
    (List.map (fun (b : Workloads.Bench_def.bench) -> b.Workloads.Bench_def.name) benches)
    (List.map (fun (name, _, _, _) -> name) bench_goldens);
  List.iter2
    (fun bench (name, cycles, transitions, digest) ->
      let m =
        Workloads.Runner.run_config ~profile (Pkru_safe.Config.make Pkru_safe.Config.Base) bench
      in
      Alcotest.(check int) (name ^ ": cycles") cycles m.Workloads.Runner.cycles;
      Alcotest.(check int) (name ^ ": transitions") transitions m.Workloads.Runner.transitions;
      Alcotest.(check string) (name ^ ": output digest") digest
        (Digest.to_hex (Digest.string (String.concat "\n" m.Workloads.Runner.output))))
    benches bench_goldens

let suite =
  List.map
    (fun ((name, _, _, _, _) as p) -> Alcotest.test_case name `Quick (test_program p))
    programs
  @ [
      Alcotest.test_case "fuel exhaustion step" `Quick test_fuel;
      Alcotest.test_case "yield points on a bare engine" `Quick test_yield_points;
      Alcotest.test_case "unknown unary operator" `Quick test_unknown_unary;
      Alcotest.test_case "substring clamps its arguments" `Quick test_substring_clamps;
      Alcotest.test_case "a literal shared by two evaluators" `Quick test_func_shared_across_evaluators;
      Alcotest.test_case "ic stats untouched" `Quick test_ic_stats_untouched;
      Alcotest.test_case "host reads made at compile time" `Quick test_host_reads;
      Alcotest.test_case "registered benchmarks golden" `Quick test_bench_goldens;
      QCheck_alcotest.to_alcotest prop_sites_agree_with_bytecode;
    ]
  @ List.map
      (fun ((name, _, _) as p) -> Alcotest.test_case ("scoping: " ^ name) `Quick (test_scoping p))
      scoping_pins
  @ List.map
      (fun ((name, _, _, _, _, _) as p) -> Alcotest.test_case ("staged: " ^ name) `Quick (test_staged p))
      staged_pins
