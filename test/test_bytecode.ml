(* Tests for the bytecode tier: language-feature checks, the compiler's
   structural output, and — most importantly — differential testing: both
   tiers must be observationally identical on every benchmark kernel, DOM
   workload and fuzzed arithmetic expression. *)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let fresh_engine ?seed () =
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
  Engine.create ?seed env

(* Run one script on both tiers (separate engines, same seed) and return
   (display-of-result, console-output) for each. *)
let both_tiers ?(page = None) src =
  let run tier =
    match page with
    | None ->
      let e = fresh_engine ~seed:7 () in
      let v = Engine.eval_string ~tier e src in
      (Engine.Value.to_display_string (Engine.heap e) v, Engine.take_output e)
    | Some html ->
      let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
      let b = Browser.create ~engine_seed:7 env in
      Browser.load_page b html;
      (* Browser.exec_script is AST-tier; drive the engine directly so the
         tier applies, keeping the bindings installed. *)
      let v = Engine.eval_string ~tier (Browser.engine b) src in
      (Engine.Value.to_display_string (Engine.heap (Browser.engine b)) v, Browser.console b)
  in
  (run Engine.Ast_tier, run Engine.Bytecode_tier)

let check_tiers_agree ?page name src =
  let (ast_v, ast_out), (bc_v, bc_out) = both_tiers ?page src in
  Alcotest.(check string) (name ^ ": result agrees") ast_v bc_v;
  Alcotest.(check (list string)) (name ^ ": output agrees") ast_out bc_out

let eval_bc src =
  let e = fresh_engine () in
  let v = Engine.eval_string ~tier:Engine.Bytecode_tier e src in
  Engine.Value.to_display_string (Engine.heap e) v

let check_bc name expected src = Alcotest.(check string) name expected (eval_bc src)

let test_basics () =
  check_bc "arith" "14" "2 + 3 * 4;";
  check_bc "string concat" "ab3" "'a' + 'b' + 3;";
  check_bc "var + assign" "12" "var x = 5; x = x + 7; x;";
  check_bc "compound assign" "14" "var x = 2; x += 3; x *= 4; x -= 6; x;";
  check_bc "ternary" "10" "1 < 2 ? 10 : 20;";
  check_bc "logical and" "0" "0 && 5;";
  check_bc "logical or" "7" "0 || 7;";
  check_bc "unary" "true" "!(1 > 2);";
  check_bc "bitwise" "6" "12 ^ 10;"

let test_control_flow () =
  check_bc "while" "45" "var s = 0; var i = 0; while (i < 10) { s = s + i; i = i + 1; } s;";
  check_bc "for" "45" "var s = 0; for (var i = 0; i < 10; i = i + 1) { s += i; } s;";
  check_bc "break" "5" "var i = 0; while (true) { if (i == 5) { break; } i = i + 1; } i;";
  check_bc "continue" "25"
    "var s = 0; for (var i = 0; i < 10; i = i + 1) { if (i % 2 == 0) { continue; } s += i; } s;";
  check_bc "break from nested block" "3"
    "var i = 0; while (true) { { if (i == 3) { break; } } i = i + 1; } i;";
  check_bc "nested for + scopes" "100"
    "var total = 0; for (var i = 0; i < 10; i = i + 1) { for (var j = 0; j < 10; j = j + 1) { total += 1; } } total;"

let test_functions () =
  check_bc "function decl + call" "120"
    "function fact(n) { if (n < 2) { return 1; } return n * fact(n - 1); } fact(5);";
  check_bc "closure" "15"
    "function adder(n) { return function(x) { return x + n; }; } adder(5)(10);";
  check_bc "higher order through methods" "[2,4,6]"
    "[1,2,3].map(function(x) { return x * 2; });";
  check_bc "early return" "1" "function f() { return 1; var x = 2; } f();";
  check_bc "object methods" "8" "var o = {f: function(x) { return x * 2; }}; o.f(4);"

let test_data_structures () =
  check_bc "array lit + index" "30" "var a = [10, 20, 30]; a[2];";
  check_bc "array push via index" "42" "var a = new Array(3); a[1] = 42; a[1];";
  check_bc "compound index assign" "11" "var a = [10]; a[0] += 1; a[0];";
  check_bc "object lit" "7" "var o = {a: 7}; o.a;";
  check_bc "member assign" "9" "var o = {}; o.x = 9; o.x;";
  check_bc "compound member assign" "6" "var o = {n: 2}; o.n *= 3; o.n;";
  check_bc "json" "42" "JSON.parse(JSON.stringify({k: 42})).k;"

let test_disassembler () =
  let program = Engine.Bytecode.compile (Engine.Parser.parse
    (let e = fresh_engine () in
     match Engine.Value.str_of_string (Engine.heap e) "var x = 1; x + 2;" with
     | Engine.Value.Str s -> Engine.Lexer.tokenize (Engine.heap e) s
     | _ -> assert false)) in
  let listing = Engine.Bytecode.disassemble program in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("listing has " ^ needle) true
        (let nl = String.length needle and hl = String.length listing in
         let rec scan i = i + nl <= hl && (String.sub listing i nl = needle || scan (i + 1)) in
         scan 0))
    [ "push_num 1"; "decl x"; "load x"; "binop +"; "ret" ];
  Alcotest.(check bool) "has instructions" true (Array.length program.Engine.Bytecode.top >= 5)

(* The big differential test: every benchmark kernel agrees across tiers. *)
let test_kernels_agree_across_tiers () =
  List.iter
    (fun (name, src) -> check_tiers_agree name src)
    [
      ("fft", Workloads.Kernels.fft ~n:64);
      ("dft", Workloads.Kernels.dft ~n:20);
      ("oscillator", Workloads.Kernels.oscillator ~n:50 ~steps:4);
      ("beat", Workloads.Kernels.beat_detection ~n:300);
      ("blur", Workloads.Kernels.gaussian_blur ~w:10 ~h:8 ~passes:2);
      ("darkroom", Workloads.Kernels.darkroom ~pixels:300);
      ("desaturate", Workloads.Kernels.desaturate ~pixels:200);
      ("jsonparse", Workloads.Kernels.json_parse_kernel ~rows:12);
      ("jsonstringify", Workloads.Kernels.json_stringify_kernel ~rows:10);
      ("aes", Workloads.Kernels.crypto_aes ~blocks:4 ~rounds:3);
      ("ccm", Workloads.Kernels.crypto_ccm ~blocks:5);
      ("pbkdf2", Workloads.Kernels.crypto_pbkdf2 ~iters:100);
      ("sha", Workloads.Kernels.crypto_sha ~iters:100);
      ("astar", Workloads.Kernels.astar ~w:8 ~h:8);
      ("richards", Workloads.Kernels.richards ~iterations:25);
      ("deltablue", Workloads.Kernels.deltablue ~chain:6 ~iters:10);
      ("splay", Workloads.Kernels.splay ~nodes:40 ~lookups:50);
      ("raytrace", Workloads.Kernels.raytrace ~w:6 ~h:5);
      ("navier", Workloads.Kernels.navier_stokes ~n:6 ~steps:2);
      ("codec", Workloads.Kernels.byte_codec ~name:"codec" ~bytes:80 ~rounds:2);
      ("codeload", Workloads.Kernels.codeload ~funcs:12);
      ("regexp", Workloads.Kernels.regexp_scan ~copies:4);
      ("strings", Workloads.Kernels.string_kernel ~iters:8);
      ("floatmix", Workloads.Kernels.float_mix ~n:20 ~iters:3);
      ("boyer", Workloads.Kernels.earley_boyer ~depth:3 ~iters:2);
      ("tokenizer", Workloads.Kernels.tokenizer ~copies:3);
    ]

let test_dom_workloads_agree_across_tiers () =
  let page = Workloads.Dom_scripts.page ~rows:5 in
  List.iter
    (fun (name, src) -> check_tiers_agree ~page:(Some page) name src)
    [
      ("dom_attr", Workloads.Dom_scripts.dom_attr ~iters:8);
      ("dom_create", Workloads.Dom_scripts.dom_create ~iters:8);
      ("dom_query", Workloads.Dom_scripts.dom_query ~iters:3);
      ("jslib_toggle", Workloads.Dom_scripts.jslib_toggle ~iters:8);
      ("jslib_select", Workloads.Dom_scripts.jslib_select ~iters:2);
      ("dom_style", Workloads.Dom_scripts.dom_style ~iters:4);
      ("dom_events", Workloads.Dom_scripts.dom_events ~iters:6);
    ]

let prop_tiers_agree_on_fuzzed_arithmetic =
  QCheck.Test.make ~count:100 ~name:"tiers agree on fuzzed expressions"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Util.Rng.create seed in
      (* Expressions over vars with assignments, conditionals and loops. *)
      let depth = 3 in
      let rec gen_e d =
        if d = 0 || Util.Rng.int rng 3 = 0 then
          match Util.Rng.int rng 3 with
          | 0 -> string_of_int (Util.Rng.int rng 100)
          | 1 -> "x"
          | _ -> "y"
        else
          let op = [| "+"; "-"; "*"; "&"; "|"; "^" |].(Util.Rng.int rng 6) in
          Printf.sprintf "(%s %s %s)" (gen_e (d - 1)) op (gen_e (d - 1))
      in
      let src =
        Printf.sprintf
          "var x = %d; var y = %d; for (var i = 0; i < 5; i = i + 1) { x = %s; y = %s; } x + y;"
          (Util.Rng.int rng 50) (Util.Rng.int rng 50) (gen_e depth) (gen_e depth)
      in
      let (a, _), (b, _) = both_tiers src in
      a = b)

let test_vm_fuel_exhaustion () =
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
  let e = Engine.create ~fuel:5_000 env in
  Alcotest.(check bool) "vm runs out of fuel" true
    (match Engine.eval_string ~tier:Engine.Bytecode_tier e "while (true) { }" with
    | exception Engine.Eval.Script_error _ -> true
    | _ -> false)

let test_vm_runtime_errors () =
  List.iter
    (fun (what, src) ->
      let e = fresh_engine () in
      Alcotest.(check bool) what true
        (match Engine.eval_string ~tier:Engine.Bytecode_tier e src with
        | exception Engine.Eval.Script_error _ -> true
        | _ -> false))
    [
      ("undefined variable", "nope;");
      ("not callable", "var x = 4; x(1);");
      ("bad index store", "var a = [1]; a[7] = 0;");
      ("method on null", "null.f();");
    ]

(* A runaway recursion is a script error on every tier, not a host stack
   overflow, even on a small host stack: the stack limit is lowered to
   200k words, as OCAMLRUNPARAM=l=200k would. *)
let test_call_depth_bound () =
  let src = "function f() { return f(); } f();" in
  let outcome tier =
    let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
    let e = Engine.create env in
    let gc = Gc.get () in
    Gc.set { gc with Gc.stack_limit = 200_000 };
    Fun.protect
      ~finally:(fun () -> Gc.set gc)
      (fun () ->
        match Engine.eval_string ~tier e src with
        | _ -> "returned"
        | exception Engine.Eval.Script_error msg -> msg
        | exception Stack_overflow -> "host stack overflow")
  in
  List.iter
    (fun (name, tier) ->
      Alcotest.(check string) name "maximum call stack size exceeded" (outcome tier))
    [ ("ast", Engine.Ast_tier); ("bytecode", Engine.Bytecode_tier); ("threaded", Engine.Threaded_tier) ]

let test_vm_under_enforcement () =
  (* The bytecode tier is subject to the same compartment rules: a VM-run
     script reading an unprofiled trusted buffer crashes. *)
  let env =
    ok
      (Pkru_safe.Env.create ~profile:(Runtime.Profile.create ())
         (Pkru_safe.Config.make Pkru_safe.Config.Mpk))
  in
  let b = Browser.create env in
  Browser.load_page b {|<div data="x">y</div>|};
  let engine = Browser.engine b in
  let gate = Pkru_safe.Env.gate env in
  match
    Runtime.Gate.call_untrusted gate (fun () ->
        Engine.eval_string ~tier:Engine.Bytecode_tier engine "1 + 1;")
  with
  | v ->
    (* Engine-heap source copy lives in MU, so plain arithmetic works... *)
    Alcotest.(check string) "arith fine" "2"
      (Engine.Value.to_display_string (Engine.heap engine) v);
    (* ...but touching a trusted binding buffer does not. *)
    (match
       Runtime.Gate.call_untrusted gate (fun () ->
           Engine.eval_string ~tier:Engine.Bytecode_tier engine
             {|domGetAttribute(domQueryTag("div")[0], "data").charCodeAt(0);|})
     with
    | exception Vmm.Fault.Unhandled _ -> ()
    | _ -> Alcotest.fail "VM access to MT should crash")

let suite =
  [
    Alcotest.test_case "basics" `Quick test_basics;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "functions + closures" `Quick test_functions;
    Alcotest.test_case "data structures" `Quick test_data_structures;
    Alcotest.test_case "disassembler" `Quick test_disassembler;
    Alcotest.test_case "kernels agree across tiers" `Quick test_kernels_agree_across_tiers;
    Alcotest.test_case "dom workloads agree across tiers" `Quick test_dom_workloads_agree_across_tiers;
    QCheck_alcotest.to_alcotest prop_tiers_agree_on_fuzzed_arithmetic;
    Alcotest.test_case "vm fuel exhaustion" `Quick test_vm_fuel_exhaustion;
    Alcotest.test_case "vm runtime errors" `Quick test_vm_runtime_errors;
    Alcotest.test_case "call depth bound" `Quick test_call_depth_bound;
    Alcotest.test_case "vm under enforcement" `Quick test_vm_under_enforcement;
  ]
