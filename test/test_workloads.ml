(* Tests for the workload library: every kernel must run and print one
   checksum, micro-benchmark ratios must have the paper's shape, and the
   runner must produce agreeing outputs across configurations. *)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let run_script ?(page = "<body></body>") script =
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
  let b = Browser.create env in
  Browser.load_page b page;
  ignore (Browser.exec_script b script);
  Browser.console b

let all_kernels =
  [
    ("fft", Workloads.Kernels.fft ~n:64);
    ("dft", Workloads.Kernels.dft ~n:24);
    ("oscillator", Workloads.Kernels.oscillator ~n:64 ~steps:4);
    ("beat", Workloads.Kernels.beat_detection ~n:400);
    ("blur", Workloads.Kernels.gaussian_blur ~w:12 ~h:10 ~passes:2);
    ("darkroom", Workloads.Kernels.darkroom ~pixels:500);
    ("desaturate", Workloads.Kernels.desaturate ~pixels:300);
    ("jsonparse", Workloads.Kernels.json_parse_kernel ~rows:20);
    ("jsonstringify", Workloads.Kernels.json_stringify_kernel ~rows:16);
    ("aes", Workloads.Kernels.crypto_aes ~blocks:6 ~rounds:4);
    ("ccm", Workloads.Kernels.crypto_ccm ~blocks:8);
    ("pbkdf2", Workloads.Kernels.crypto_pbkdf2 ~iters:200);
    ("sha", Workloads.Kernels.crypto_sha ~iters:200);
    ("astar", Workloads.Kernels.astar ~w:10 ~h:10);
    ("richards", Workloads.Kernels.richards ~iterations:40);
    ("deltablue", Workloads.Kernels.deltablue ~chain:8 ~iters:20);
    ("splay", Workloads.Kernels.splay ~nodes:60 ~lookups:80);
    ("raytrace", Workloads.Kernels.raytrace ~w:8 ~h:6);
    ("navier", Workloads.Kernels.navier_stokes ~n:8 ~steps:3);
    ("codec", Workloads.Kernels.byte_codec ~name:"codec" ~bytes:120 ~rounds:3);
    ("codeload", Workloads.Kernels.codeload ~funcs:25);
    ("regexp", Workloads.Kernels.regexp_scan ~copies:6);
    ("strings", Workloads.Kernels.string_kernel ~iters:12);
    ("floatmix", Workloads.Kernels.float_mix ~n:30 ~iters:5);
    ("boyer", Workloads.Kernels.earley_boyer ~depth:4 ~iters:3);
    ("tokenizer", Workloads.Kernels.tokenizer ~copies:4);
  ]

let test_every_kernel_runs () =
  List.iter
    (fun (name, script) ->
      match run_script script with
      | [ line ] ->
        Alcotest.(check bool)
          (Printf.sprintf "%s prints a checksum (%s)" name line)
          true
          (String.contains line ':')
      | lines ->
        Alcotest.fail
          (Printf.sprintf "%s: expected one output line, got %d" name (List.length lines)))
    all_kernels

let test_kernels_deterministic () =
  List.iter
    (fun (name, script) ->
      Alcotest.(check (list string)) name (run_script script) (run_script script))
    [ ("fft", Workloads.Kernels.fft ~n:64); ("splay", Workloads.Kernels.splay ~nodes:50 ~lookups:50) ]

let test_dom_scripts_run () =
  let page = Workloads.Dom_scripts.page ~rows:6 in
  List.iter
    (fun (name, script) ->
      match run_script ~page script with
      | [ line ] ->
        Alcotest.(check bool) (name ^ " output " ^ line) true (String.contains line ':')
      | lines -> Alcotest.fail (Printf.sprintf "%s: %d lines" name (List.length lines)))
    [
      ("dom_attr", Workloads.Dom_scripts.dom_attr ~iters:10);
      ("dom_create", Workloads.Dom_scripts.dom_create ~iters:10);
      ("dom_query", Workloads.Dom_scripts.dom_query ~iters:4);
      ("dom_html", Workloads.Dom_scripts.dom_html ~iters:4);
      ("dom_traverse", Workloads.Dom_scripts.dom_traverse ~iters:4);
      ("jslib_toggle", Workloads.Dom_scripts.jslib_toggle ~iters:10);
      ("jslib_build", Workloads.Dom_scripts.jslib_build ~iters:4);
      ("dom_style", Workloads.Dom_scripts.dom_style ~iters:4);
      ("dom_events", Workloads.Dom_scripts.dom_events ~iters:4);
      ("jslib_select", Workloads.Dom_scripts.jslib_select ~iters:2);
    ]

let test_micro_shape () =
  let results = Workloads.Microbench.run ~iterations:2_000 () in
  (match results with
  | [ empty; read_one; callback ] ->
    Alcotest.(check string) "order" "Empty" empty.Workloads.Microbench.name;
    (* Paper §5.2: Empty 8.55x > Read-One 7.61x > Callback 6.17x. *)
    Alcotest.(check bool)
      (Printf.sprintf "empty (%.2fx) is the worst" empty.Workloads.Microbench.overhead_x)
      true
      (empty.Workloads.Microbench.overhead_x > read_one.Workloads.Microbench.overhead_x);
    Alcotest.(check bool)
      (Printf.sprintf "read-one (%.2fx) > callback (%.2fx)"
         read_one.Workloads.Microbench.overhead_x callback.Workloads.Microbench.overhead_x)
      true
      (read_one.Workloads.Microbench.overhead_x > callback.Workloads.Microbench.overhead_x);
    Alcotest.(check bool)
      (Printf.sprintf "empty in the paper's regime: %.2fx" empty.Workloads.Microbench.overhead_x)
      true
      (empty.Workloads.Microbench.overhead_x > 5.0 && empty.Workloads.Microbench.overhead_x < 13.0)
  | _ -> Alcotest.fail "expected three micro results")

let test_sweep_decays () =
  let sweep = Workloads.Microbench.sweep ~loop_counts:[ 0; 10; 50; 200 ] ~iterations:500 () in
  let overheads = List.map snd sweep in
  (match overheads with
  | a :: rest ->
    List.iter
      (fun b -> Alcotest.(check bool) "monotone decay" true (b < a))
      [ List.nth rest (List.length rest - 1) ];
    (* The tail approaches 1.0, as in Figure 3. *)
    let tail = List.nth overheads (List.length overheads - 1) in
    Alcotest.(check bool) (Printf.sprintf "tail %.3f near 1" tail) true (tail < 1.3)
  | [] -> Alcotest.fail "empty sweep");
  Alcotest.(check int) "all points" 4 (List.length sweep)

let test_runner_single_bench () =
  let bench =
    Workloads.Bench_def.bench ~page:(Workloads.Dom_scripts.page ~rows:4) "mini-dom"
      (Workloads.Dom_scripts.dom_attr ~iters:15)
  in
  let suite = { Workloads.Bench_def.suite_name = "mini"; benches = [ bench ] } in
  let r = List.hd (Workloads.Runner.run_suite suite).Workloads.Runner.bench_results in
  Alcotest.(check bool) "outputs agree across configs" true r.Workloads.Runner.outputs_agree;
  Alcotest.(check bool) "mpk run crossed the boundary" true
    (r.Workloads.Runner.mpk.Workloads.Runner.transitions > 30);
  Alcotest.(check int) "base run has no transitions" 0
    (r.Workloads.Runner.base.Workloads.Runner.transitions);
  Alcotest.(check bool) "mpk costs more than base" true
    (r.Workloads.Runner.mpk_overhead_pct > 0.0)

let test_dom_suite_overhead_exceeds_compute_suite () =
  (* The Table-2 shape: binding-bound dom workloads suffer far more from
     gates than engine-bound compute kernels. *)
  let dom_bench =
    Workloads.Bench_def.bench ~page:(Workloads.Dom_scripts.page ~rows:4) "dom"
      (Workloads.Dom_scripts.dom_attr ~iters:40)
  in
  let compute_bench = Workloads.Bench_def.bench "fft" (Workloads.Kernels.fft ~n:128) in
  let run b =
    let suite = { Workloads.Bench_def.suite_name = "s"; benches = [ b ] } in
    (List.hd (Workloads.Runner.run_suite suite).Workloads.Runner.bench_results)
      .Workloads.Runner.mpk_overhead_pct
  in
  let dom_pct = run dom_bench in
  let compute_pct = run compute_bench in
  Alcotest.(check bool)
    (Printf.sprintf "dom %.1f%% >> compute %.1f%%" dom_pct compute_pct)
    true
    (dom_pct > 2.0 *. Float.max compute_pct 0.5)

let test_jetstream_scores () =
  let bench = Workloads.Bench_def.bench "k" (Workloads.Kernels.crypto_sha ~iters:300) in
  let suite = { Workloads.Bench_def.suite_name = "s"; benches = [ bench ] } in
  let result = Workloads.Runner.run_suite suite in
  let score = Workloads.Runner.geomean_score result in
  Alcotest.(check bool) "scores positive" true (score Pkru_safe.Config.Base > 0.0);
  (* Engine-bound kernels score on par across configurations (Table 3). *)
  let rel =
    Float.abs (score Pkru_safe.Config.Base -. score Pkru_safe.Config.Mpk)
    /. score Pkru_safe.Config.Base
  in
  Alcotest.(check bool) (Printf.sprintf "scores within 10%% (%.3f)" rel) true (rel < 0.10)

let test_suite_definitions_well_formed () =
  let check_suite (s : Workloads.Bench_def.suite) =
    Alcotest.(check bool) (s.Workloads.Bench_def.suite_name ^ " nonempty") true
      (List.length s.Workloads.Bench_def.benches > 0);
    let names = List.map (fun b -> b.Workloads.Bench_def.name) s.Workloads.Bench_def.benches in
    Alcotest.(check int)
      (s.Workloads.Bench_def.suite_name ^ " unique names")
      (List.length names)
      (List.length (List.sort_uniq compare names))
  in
  List.iter check_suite
    (Workloads.Dromaeo.all :: Workloads.Kraken.all :: Workloads.Octane.all
     :: Workloads.Jetstream.all :: Workloads.Dromaeo.sub_suites)

(* A browsing session as the corpus runs it: load the page, run the
   scripts, collect the console. *)
let run_session env (session : Workloads.Browsing.session) =
  let b = Browser.create env in
  Browser.load_page b session.Workloads.Browsing.page;
  List.iter (fun script -> ignore (Browser.exec_script b script)) session.Workloads.Browsing.scripts;
  Browser.console b

let test_browsing_corpus () =
  let corpus = Workloads.Browsing.collect () in
  Alcotest.(check int) "seven sessions" 7 (Runtime.Corpus.run_count corpus);
  let profile = Runtime.Corpus.merged corpus in
  List.iter
    (fun site ->
      Alcotest.(check bool)
        (Printf.sprintf "corpus covers %s" (Runtime.Alloc_id.to_string site))
        true (Runtime.Profile.mem profile site))
    (* The sites the bindings hand to the engine by construction. *)
    Browser.Sites.[ script_source; inner_html; get_attribute; text_content ];
  (* Every session replays cleanly on an enforcement build carrying the
     deployment profile (the paper's E2 behaviour). *)
  List.iter
    (fun session ->
      let env = ok (Pkru_safe.Env.create ~profile (Pkru_safe.Config.make Pkru_safe.Config.Mpk)) in
      let out = run_session env session in
      Alcotest.(check bool)
        (session.Workloads.Browsing.session_name ^ " produced output")
        true (out <> []))
    Workloads.Browsing.sessions;
  (* And the growth curve saturates: later sessions add fewer new sites. *)
  match Runtime.Corpus.marginal_gains corpus with
  | (first_name, first) :: rest ->
    Alcotest.(check bool) (first_name ^ " seeds the corpus") true (first > 0);
    let tail_total = List.fold_left (fun acc (_, n) -> acc + n) 0 rest in
    Alcotest.(check bool) "tail adds less than the head" true (tail_total <= first + 2)
  | [] -> Alcotest.fail "empty corpus"

let test_single_session_profile_is_incomplete () =
  (* One session alone is not a sufficient corpus: some other session
     crashes under its profile — the missed-dataflow behaviour. *)
  let wpt_only =
    let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Profiling)) in
    ignore (run_session env (List.hd Workloads.Browsing.sessions));
    Pkru_safe.Env.recorded_profile env
  in
  let crashed = ref 0 in
  List.iter
    (fun session ->
      let env =
        ok (Pkru_safe.Env.create ~profile:wpt_only (Pkru_safe.Config.make Pkru_safe.Config.Mpk))
      in
      match run_session env session with
      | _ -> ()
      | exception Vmm.Fault.Unhandled _ -> incr crashed)
    Workloads.Browsing.sessions;
  Alcotest.(check bool) "some session crashes on the thin profile" true (!crashed > 0)

(* Every registered benchmark is reachable: each unknown-name error
   lists exactly one spelling per benchmark, and that spelling resolves
   to the benchmark itself.  A name two suites share is refused bare and
   accepted qualified. *)
let test_registry_reaches_every_bench () =
  let known =
    match Workloads.Registry.bench_of_name "no-such-bench" with
    | Ok _ -> Alcotest.fail "bogus bench accepted"
    | Error msg ->
      let marker = "; known: " in
      let rec find i = if String.sub msg i (String.length marker) = marker then i else find (i + 1) in
      let start = find 0 + String.length marker in
      String.split_on_char ',' (String.sub msg start (String.length msg - start))
      |> List.map String.trim
  in
  Alcotest.(check int) "one spelling per benchmark" (List.length Workloads.Registry.benches)
    (List.length known);
  List.iter2
    (fun name (bench : Workloads.Bench_def.bench) ->
      match Workloads.Registry.bench_of_name name with
      | Ok b -> Alcotest.(check bool) (name ^ " resolves to itself") true (b == bench)
      | Error msg -> Alcotest.fail msg)
    known Workloads.Registry.benches;
  (match Workloads.Registry.bench_of_name "ai-astar" with
  | Ok _ -> Alcotest.fail "ambiguous name accepted"
  | Error msg ->
    Alcotest.(check string) "ambiguity lists the qualified forms"
      "ambiguous benchmark \"ai-astar\"; use one of: Kraken/ai-astar, JetStream2/ai-astar" msg);
  List.iter
    (fun (qualified, suite) ->
      match Workloads.Registry.bench_of_name qualified with
      | Ok b -> Alcotest.(check bool) (qualified ^ " picks its suite's bench") true (List.memq b suite.Workloads.Bench_def.benches)
      | Error msg -> Alcotest.fail msg)
    [ ("Kraken/ai-astar", Workloads.Kraken.all); ("JetStream2/ai-astar", Workloads.Jetstream.all);
      ("Octane/Box2D", Workloads.Octane.all); ("JetStream2/Box2D", Workloads.Jetstream.all);
      ("Kraken/stanford-crypto-pbkdf2", Workloads.Kraken.all);
      ("JetStream2/stanford-crypto-pbkdf2", Workloads.Jetstream.all);
      ("Dromaeo/dom-attr", Workloads.Dromaeo.all) ]

let suite =
  [
    Alcotest.test_case "every kernel runs" `Quick test_every_kernel_runs;
    Alcotest.test_case "kernels deterministic" `Quick test_kernels_deterministic;
    Alcotest.test_case "dom scripts run" `Quick test_dom_scripts_run;
    Alcotest.test_case "micro shape (5.2)" `Quick test_micro_shape;
    Alcotest.test_case "sweep decays (fig 3)" `Quick test_sweep_decays;
    Alcotest.test_case "runner single bench" `Quick test_runner_single_bench;
    Alcotest.test_case "dom >> compute overhead (table 2)" `Quick test_dom_suite_overhead_exceeds_compute_suite;
    Alcotest.test_case "jetstream scores" `Quick test_jetstream_scores;
    Alcotest.test_case "suite definitions" `Quick test_suite_definitions_well_formed;
    Alcotest.test_case "browsing corpus" `Quick test_browsing_corpus;
    Alcotest.test_case "single-session profile incomplete" `Quick test_single_session_profile_is_incomplete;
    Alcotest.test_case "registry reaches every bench" `Quick test_registry_reaches_every_bench;
  ]
