(* The AST tier's contract: it compiles each program once into closures,
   and those closures must tick, charge and order side effects exactly as
   a tree walk of the same AST.  Pins evaluation order, the double
   evaluation of compound-assignment targets, variable resolution against
   dynamic declaration order and late shadowing, step counts (fuel), the
   fast-tier-only IC counters, scoping cases on the AST and threaded
   tiers, and golden cycles / transitions / output digests for every
   registered benchmark under [base]. *)

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

(* Matched by position: two suites each register an "ai-astar". *)
let test_bench_goldens () =
  let profile = Runtime.Profile.create () in
  let benches = Workloads.Registry.benches in
  Alcotest.(check (list string)) "every registered benchmark is pinned"
    (List.map (fun (b : Workloads.Bench_def.bench) -> b.Workloads.Bench_def.name) benches)
    (List.map (fun (name, _, _, _) -> name) bench_goldens);
  List.iter2
    (fun bench (name, cycles, transitions, digest) ->
      let m = Workloads.Runner.run_config ~mode:Pkru_safe.Config.Base ~profile bench in
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
      Alcotest.test_case "unknown unary operator" `Quick test_unknown_unary;
      Alcotest.test_case "ic stats untouched" `Quick test_ic_stats_untouched;
      Alcotest.test_case "registered benchmarks golden" `Quick test_bench_goldens;
    ]
  @ List.map
      (fun ((name, _, _) as p) -> Alcotest.test_case ("scoping: " ^ name) `Quick (test_scoping p))
      scoping_pins
