(* Differential tests for the fast engine tier: the threaded
   (closure-compiled) dispatcher with superinstructions and inline caches
   must simulate bit-identically to the reference bytecode interpreter —
   same cycles, same transitions, same telemetry event trace — on every
   workload kernel.  Also covers IC invalidation (object shape changes,
   DOM mutation between selector matches), the growable-buffer emitter's
   label targets, and the engine counter plumbing. *)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let trace_json sink =
  Util.Json.to_string
    (Util.Json.List (List.map Telemetry.Event.record_to_json (Telemetry.Sink.events sink)))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

(* The kernel corpus: small instances of the dromaeo / octane / sunspider
   kernels (engine-bound) plus DOM-bound scripts further down. *)
let kernels =
  [
    ("fft", Workloads.Kernels.fft ~n:32);
    ("dft", Workloads.Kernels.dft ~n:16);
    ("oscillator", Workloads.Kernels.oscillator ~n:40 ~steps:3);
    ("blur", Workloads.Kernels.gaussian_blur ~w:8 ~h:6 ~passes:2);
    ("desaturate", Workloads.Kernels.desaturate ~pixels:150);
    ("jsonparse", Workloads.Kernels.json_parse_kernel ~rows:8);
    ("jsonstringify", Workloads.Kernels.json_stringify_kernel ~rows:8);
    ("aes", Workloads.Kernels.crypto_aes ~blocks:3 ~rounds:2);
    ("sha", Workloads.Kernels.crypto_sha ~iters:60);
    ("astar", Workloads.Kernels.astar ~w:9 ~h:7);
    ("richards", Workloads.Kernels.richards ~iterations:4);
    ("deltablue", Workloads.Kernels.deltablue ~chain:6 ~iters:4);
    ("splay", Workloads.Kernels.splay ~nodes:40 ~lookups:60);
    ("raytrace", Workloads.Kernels.raytrace ~w:8 ~h:6);
    ("navier", Workloads.Kernels.navier_stokes ~n:8 ~steps:2);
    ("codec", Workloads.Kernels.byte_codec ~name:"codec" ~bytes:200 ~rounds:3);
    ("regexp", Workloads.Kernels.regexp_scan ~copies:4);
    ("strings", Workloads.Kernels.string_kernel ~iters:30);
    ("earley", Workloads.Kernels.earley_boyer ~depth:4 ~iters:3);
    ("tokenizer", Workloads.Kernels.tokenizer ~copies:4);
  ]

type run_digest = {
  d_cycles : int;
  d_transitions : int;
  d_output : string list;
  d_trace : string;
  d_sink : Telemetry.Sink.t;
}

(* One measured run of [bench] under [mode] at the given engine tier —
   the runner's protocol (page load is setup, counters reset, the traced
   script is timed). *)
let measure ?selector_cache ?(mode = Pkru_safe.Config.Base) ?profile ~tier
    (bench : Workloads.Bench_def.bench) =
  let profile = match profile with Some p -> p | None -> Runtime.Profile.create () in
  let env = ok (Pkru_safe.Env.create ~profile (Pkru_safe.Config.make mode)) in
  let browser =
    Browser.create ~engine_seed:bench.Workloads.Bench_def.engine_seed ?selector_cache env
  in
  Browser.load_page browser bench.Workloads.Bench_def.page;
  Engine.reset_stats (Browser.engine browser);
  let sink = Telemetry.Sink.create () in
  Workloads.Runner.run_scripts ~trace:sink ~engine_tier:tier browser
    [ bench.Workloads.Bench_def.script ];
  {
    d_cycles = Pkru_safe.Env.cycles env;
    d_transitions = Pkru_safe.Env.transitions env;
    d_output = Browser.console browser;
    d_trace = trace_json sink;
    d_sink = sink;
  }

let check_bit_identical name (reference : run_digest) (candidate : run_digest) =
  Alcotest.(check (list string)) (name ^ ": output identical") reference.d_output
    candidate.d_output;
  Alcotest.(check int) (name ^ ": cycles identical") reference.d_cycles candidate.d_cycles;
  Alcotest.(check int)
    (name ^ ": transitions identical")
    reference.d_transitions candidate.d_transitions;
  Alcotest.(check string) (name ^ ": trace bit-identical") reference.d_trace candidate.d_trace

(* The headline differential: every kernel, three ways.  The AST tier must
   agree on results; the two bytecode tiers (reference interpreter and
   threaded) must be bit-identical in cycles, transitions and event
   traces. *)
let test_kernel_equivalence () =
  List.iter
    (fun (name, src) ->
      let bench = Workloads.Bench_def.bench ("dispatch-" ^ name) src in
      let ast = measure ~tier:Engine.Ast_tier bench in
      let reference = measure ~tier:Engine.Bytecode_tier bench in
      let threaded = measure ~tier:Engine.Threaded_tier bench in
      Alcotest.(check (list string)) (name ^ ": ast output agrees") ast.d_output
        reference.d_output;
      check_bit_identical (name ^ " threaded") reference threaded)
    kernels

(* DOM-bound equivalence under enforcement: gate transitions and fault
   checks interleave with engine work; Mpk mode must stay bit-identical
   across the bytecode tiers, selector cache on or off. *)
let test_dom_equivalence () =
  let bench =
    Workloads.Bench_def.bench
      ~page:(Workloads.Dom_scripts.page ~rows:5)
      "dispatch-dom" (Workloads.Dom_scripts.jslib_select ~iters:8)
  in
  let profile = Workloads.Runner.profile_bench bench in
  let mode = Pkru_safe.Config.Mpk in
  let reference = measure ~tier:Engine.Bytecode_tier ~mode ~profile bench in
  let threaded = measure ~tier:Engine.Threaded_tier ~mode ~profile bench in
  check_bit_identical "dom mpk threaded" reference threaded;
  Alcotest.(check bool) "selector cache hit during run" true
    (Telemetry.Sink.count threaded.d_sink "engine_selector_hit" > 0);
  let uncached = measure ~tier:Engine.Threaded_tier ~selector_cache:false ~mode ~profile bench in
  check_bit_identical "selector cache off" reference uncached;
  Alcotest.(check int) "no cache hits when disabled" 0
    (Telemetry.Sink.count uncached.d_sink "engine_selector_hit")

(* Profiling mode exercises the fault + single-step path (every access
   faults and is single-stepped); the threaded tier must not perturb
   it, and the profiles both bytecode tiers produce must discover the
   same sites. *)
let test_profiling_equivalence () =
  let bench =
    Workloads.Bench_def.bench
      ~page:(Workloads.Dom_scripts.page ~rows:4)
      "dispatch-prof" (Workloads.Dom_scripts.dom_attr ~iters:6)
  in
  let profile = Workloads.Runner.profile_bench bench in
  let mode = Pkru_safe.Config.Profiling in
  let reference = measure ~tier:Engine.Bytecode_tier ~mode ~profile bench in
  let threaded = measure ~tier:Engine.Threaded_tier ~mode ~profile bench in
  check_bit_identical "profiling mode" reference threaded;
  let sites tier =
    let browser =
      Workloads.Runner.load ~profile:(Runtime.Profile.create ())
        (Pkru_safe.Config.make Pkru_safe.Config.Profiling)
        bench
    in
    Workloads.Runner.run_scripts ~engine_tier:tier browser [ bench.Workloads.Bench_def.script ];
    let p = Pkru_safe.Env.recorded_profile (Browser.env browser) in
    List.sort compare (List.map Runtime.Alloc_id.to_string (Runtime.Profile.sites p))
  in
  Alcotest.(check (list string)) "profiler discovers identical sites"
    (sites Engine.Bytecode_tier) (sites Engine.Threaded_tier)

(* --- IC invalidation --- *)

let fresh_engine ?(seed = 7) () =
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
  Engine.create ~seed env

let eval_tier tier src =
  let e = fresh_engine () in
  let v = Engine.eval_string ~tier e src in
  (Engine.Value.to_display_string (Engine.heap e) v, Engine.take_output e)

let check_threaded_agrees name src =
  let ast_v, ast_out = eval_tier Engine.Ast_tier src in
  let thr_v, thr_out = eval_tier Engine.Threaded_tier src in
  Alcotest.(check string) (name ^ ": result") ast_v thr_v;
  Alcotest.(check (list string)) (name ^ ": output") ast_out thr_out

(* A property IC caches (shape, slot); adding a new property transitions
   the shape, so a stale cache entry must stop hitting. *)
let test_prop_ic_shape_invalidation () =
  check_threaded_agrees "shape transition mid-loop"
    "function get(o) { return o.x; }\n\
     var a = {x: 1};\n\
     var s = 0;\n\
     for (var i = 0; i < 20; i = i + 1) { s = s + get(a); }\n\
     a.y = 100;\n\
     s = s + get(a);\n\
     var b = {y: 2, x: 7};\n\
     s = s + get(b);\n\
     print(s); s;";
  (* Polymorphic then megamorphic: more shapes than pic entries. *)
  check_threaded_agrees "megamorphic site"
    "function get(o) { return o.v; }\n\
     var os = [{v:1},{a:0,v:2},{a:0,b:0,v:3},{a:0,b:0,c:0,v:4},{a:0,b:0,c:0,d:0,v:5},{e:0,v:6}];\n\
     var s = 0;\n\
     for (var i = 0; i < 30; i = i + 1) { s = s + get(os[i % 6]); }\n\
     print(s); s;";
  (* Writes through a cached store site after a transition. *)
  check_threaded_agrees "store after transition"
    "function set(o, v) { o.x = v; return o.x; }\n\
     var a = {x: 0};\n\
     var s = 0;\n\
     for (var i = 0; i < 10; i = i + 1) { s = s + set(a, i); }\n\
     a.z = 1;\n\
     s = s + set(a, 50);\n\
     print(s); s;"

(* The variable IC anchors on the parent scope chain and validates
   against per-scope declaration epochs: a declaration appearing between
   cached lookups must redirect the site. *)
let test_var_ic_decl_invalidation () =
  check_threaded_agrees "inner declaration shadows cached lookup"
    "var x = 1;\n\
     function probe() { return x; }\n\
     var s = probe();\n\
     x = 5;\n\
     s = s + probe();\n\
     print(s); s;";
  check_threaded_agrees "closure chains with distinct depths"
    "function mk(n) { return function(d) { return n + d; }; }\n\
     var f = mk(10); var g = mk(20);\n\
     var s = 0;\n\
     for (var i = 0; i < 12; i = i + 1) { s = s + f(i) + g(i); }\n\
     print(s); s;"

(* DOM mutation between selector matches: a compiled (cached) selector
   whose names were not interned at compile time must pick them up after
   createElement / setAttribute interns them. *)
let test_selector_dom_mutation () =
  let script =
    "var before = domQuery(\"widget\").length;\n\
     var beforeCls = domQuery(\".fresh\").length;\n\
     var el = domCreateElement(\"widget\");\n\
     domSetAttribute(el, \"class\", \"fresh\");\n\
     domAppendChild(domRoot(), el);\n\
     var after = domQuery(\"widget\").length;\n\
     var afterCls = domQuery(\".fresh\").length;\n\
     print(before + \":\" + beforeCls + \":\" + after + \":\" + afterCls);\n"
  in
  let run tier ~cache =
    let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
    let b = Browser.create ~engine_seed:7 ~selector_cache:cache env in
    Browser.load_page b "<html><body><div id=\"main\">hi</div></body></html>";
    ignore (Browser.exec_script ~tier b script);
    Browser.console b
  in
  let expected = [ "0:0:1:1" ] in
  Alcotest.(check (list string)) "ast, cached" expected (run Engine.Ast_tier ~cache:true);
  Alcotest.(check (list string)) "threaded, cached" expected
    (run Engine.Threaded_tier ~cache:true);
  Alcotest.(check (list string)) "threaded, uncached" expected
    (run Engine.Threaded_tier ~cache:false)

(* --- The growable-buffer emitter --- *)

(* Every jump in every kernel's compiled code (including lazily-compiled
   function bodies) must land inside its code object — the regression the
   old emit/assemble rewrite guards against — and compilation must be
   deterministic so the disassembly is stable. *)
let test_emitter_label_targets () =
  let parse src =
    let e = fresh_engine () in
    match Engine.Value.str_of_string (Engine.heap e) src with
    | Engine.Value.Str s -> Engine.Parser.parse (Engine.Lexer.tokenize (Engine.heap e) s)
    | _ -> assert false
  in
  let rec check_code name (code : Engine.Bytecode.instr array) =
    let n = Array.length code in
    Array.iter
      (fun instr ->
        let target =
          match instr with
          | Engine.Bytecode.Jump t
          | Engine.Bytecode.Jump_if_false t
          | Engine.Bytecode.Jump_if_false_peek t
          | Engine.Bytecode.Jump_if_true_peek t -> Some t
          | _ -> None
        in
        (match target with
        | Some t ->
          if t < 0 || t > n then
            Alcotest.failf "%s: jump target %d outside [0,%d]" name t n
        | None -> ());
        match instr with
        | Engine.Bytecode.Make_closure fn ->
          check_code (name ^ "/closure")
            (Engine.Bytecode.compile_body (Engine.Eval.func_body fn) ~toplevel:false)
        | _ -> ())
      code
  in
  List.iter
    (fun (name, src) ->
      let ast = parse src in
      let p1 = Engine.Bytecode.compile ast in
      let p2 = Engine.Bytecode.compile ast in
      check_code name p1.Engine.Bytecode.top;
      Alcotest.(check string) (name ^ ": disassembly deterministic")
        (Engine.Bytecode.disassemble p1) (Engine.Bytecode.disassemble p2))
    kernels

(* Forward and backward jumps across a growth boundary: enough straight-
   line code to force several buffer doublings inside one loop body. *)
let test_emitter_growth_boundary () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "var s = 0;\nfor (var i = 0; i < 3; i = i + 1) {\n";
  for k = 1 to 120 do
    Buffer.add_string buf (Printf.sprintf "  s = s + %d;\n" k)
  done;
  Buffer.add_string buf "  if (s > 100000) { break; }\n}\ns;";
  let src = Buffer.contents buf in
  let ast_v, _ = eval_tier Engine.Ast_tier src in
  let bc_v, _ = eval_tier Engine.Bytecode_tier src in
  let thr_v, _ = eval_tier Engine.Threaded_tier src in
  Alcotest.(check string) "bytecode survives buffer growth" ast_v bc_v;
  Alcotest.(check string) "threaded survives buffer growth" ast_v thr_v

(* --- Counters --- *)

(* The runner injects the selector-cache counters post-run: live on a
   DOM script, zero on a script that queries no selector. *)
let dom_select_bench () =
  Workloads.Bench_def.bench
    ~page:(Workloads.Dom_scripts.page ~rows:5)
    "dispatch-sel" (Workloads.Dom_scripts.jslib_select ~iters:8)

let test_counters_injected () =
  let dom = measure ~tier:Engine.Ast_tier (dom_select_bench ()) in
  Alcotest.(check bool) "selector hits" true
    (Telemetry.Sink.count dom.d_sink "engine_selector_hit" > 0);
  let bench =
    Workloads.Bench_def.bench "dispatch-cnt" (Workloads.Kernels.richards ~iterations:4)
  in
  let plain = measure ~tier:Engine.Ast_tier bench in
  List.iter
    (fun name ->
      Alcotest.(check int) (name ^ " zero without selectors") 0
        (Telemetry.Sink.count plain.d_sink name))
    [ "engine_selector_hit"; "engine_selector_miss" ];
  (* The summary JSON digest (bench --json) carries the selector counters. *)
  Alcotest.(check bool) "summary_json carries selector digests" true
    (contains
       (Util.Json.to_string (Telemetry.Export.summary_json dom.d_sink))
       "engine_selector_hit")

(* The pkru_engine_* Prometheus families are the selector-cache pair:
   always exposed (zero cells on a run with no selector), populated from
   the runner-injected sink counters. *)
let test_prometheus_engine_families () =
  let empty = Telemetry.Export.prometheus (Telemetry.Sink.create ()) in
  let families = [ "pkru_engine_selector_hits_total"; "pkru_engine_selector_misses_total" ] in
  List.iter
    (fun family ->
      Alcotest.(check bool) (family ^ " exposed at zero") true
        (contains empty (family ^ " 0")))
    families;
  let engine_lines =
    List.filter
      (fun line -> String.starts_with ~prefix:"pkru_engine_" line)
      (String.split_on_char '\n' empty)
  in
  Alcotest.(check int) "only the selector families" (List.length families)
    (List.length engine_lines);
  let dom = measure ~tier:Engine.Ast_tier (dom_select_bench ()) in
  let text = Telemetry.Export.prometheus dom.d_sink in
  let expect family sink_counter =
    Alcotest.(check bool) (family ^ " populated from sink") true
      (contains text
         (Printf.sprintf "%s %d" family (Telemetry.Sink.count dom.d_sink sink_counter)))
  in
  expect "pkru_engine_selector_hits_total" "engine_selector_hit";
  expect "pkru_engine_selector_misses_total" "engine_selector_miss"

let suite =
  [
    Alcotest.test_case "kernels: 3-way equivalence" `Quick test_kernel_equivalence;
    Alcotest.test_case "dom equivalence (mpk + selector cache)" `Quick test_dom_equivalence;
    Alcotest.test_case "profiling-mode equivalence" `Quick test_profiling_equivalence;
    Alcotest.test_case "prop IC shape invalidation" `Quick test_prop_ic_shape_invalidation;
    Alcotest.test_case "var IC declaration invalidation" `Quick test_var_ic_decl_invalidation;
    Alcotest.test_case "selector IC after DOM mutation" `Quick test_selector_dom_mutation;
    Alcotest.test_case "emitter: label targets in bounds" `Quick test_emitter_label_targets;
    Alcotest.test_case "emitter: growth boundary" `Quick test_emitter_growth_boundary;
    Alcotest.test_case "counters injected + digests" `Quick test_counters_injected;
    Alcotest.test_case "prometheus pkru_engine_* families" `Quick
      test_prometheus_engine_families;
  ]
