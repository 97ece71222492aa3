(* Fleet scheduler tests: scheduling must be architecturally invisible
   (per-session cycles, transitions, checksums and traces independent of
   the CPU count and of interleaving), a single-session fleet run must be
   bit-identical to the plain runner, the shared backing budget must
   surface as per-session Oom outcomes without sinking the fleet, and
   telemetry must stay on the machine it was attached to. *)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let trace_json sink =
  Util.Json.to_string
    (Util.Json.List (List.map Telemetry.Event.record_to_json (Telemetry.Sink.events sink)))

let mixed_jobs =
  [
    Fleet.job_of_bench (Workloads.Bench_def.bench "light" (Workloads.Kernels.fft ~n:8));
    Fleet.job_of_bench
      (Workloads.Bench_def.bench "heavy" (Workloads.Kernels.crypto_sha ~iters:6));
  ]

let ident_bench =
  Workloads.Bench_def.bench ~page:(Workloads.Dom_scripts.page ~rows:4) "ident"
    (Workloads.Dom_scripts.dom_attr ~iters:6)

let session_digests (r : Fleet.result) =
  List.map
    (fun (sr : Fleet.session_result) ->
      ((sr.Fleet.sr_name, sr.Fleet.sr_cycles), (sr.Fleet.sr_transitions, sr.Fleet.sr_checksum)))
    r.Fleet.r_results

(* Same seed, same N: per-session results must be identical whatever the
   CPU count, with yields forced mid-script by a small timeslice. *)
let test_determinism_across_cpus () =
  let run cpus = Fleet.run ~cpus ~timeslice:100 ~max_live:16 ~sessions:24 mixed_jobs in
  let r1 = run 1 and r3 = run 3 in
  Alcotest.(check int) "all complete at 1 cpu" 24 r1.Fleet.r_completed;
  Alcotest.(check int) "all complete at 3 cpus" 24 r3.Fleet.r_completed;
  Alcotest.(check bool) "yields actually happened" true (r1.Fleet.r_yields > 0);
  Alcotest.(check (list (pair (pair string int) (pair int int))))
    "per-session digests independent of cpu count" (session_digests r1) (session_digests r3);
  (* Repeat runs are reproducible outright. *)
  Alcotest.(check (list (pair (pair string int) (pair int int))))
    "repeat run identical" (session_digests r3) (session_digests (run 3))

(* A single-session fleet run is the runner's measurement, bit for bit:
   cycles, transitions, the event trace and every injected counter — even
   though the fleet run parks and resumes the session mid-script. *)
let test_single_session_bit_identity () =
  let profile = Runtime.Profile.create () in
  let runner =
    Workloads.Runner.run_config ~telemetry:true ~mode:Pkru_safe.Config.Base ~profile
      ident_bench
  in
  let fleet =
    Fleet.run ~telemetry:true ~timeslice:150 ~sessions:1 [ Fleet.job_of_bench ident_bench ]
  in
  let sr = List.hd fleet.Fleet.r_results in
  Alcotest.(check bool) "fleet run yielded mid-script" true (fleet.Fleet.r_yields > 0);
  Alcotest.(check int) "cycles" runner.Workloads.Runner.cycles sr.Fleet.sr_cycles;
  Alcotest.(check int) "transitions" runner.Workloads.Runner.transitions
    sr.Fleet.sr_transitions;
  match (fleet.Fleet.r_trace, runner.Workloads.Runner.trace) with
  | Some ft, Some rt ->
    Alcotest.(check string) "event trace" (trace_json rt) (trace_json ft);
    List.iter
      (fun counter ->
        Alcotest.(check int) counter (Telemetry.Sink.count rt counter)
          (Telemetry.Sink.count ft counter))
      [ "tlb_hit"; "tlb_miss"; "tlb_flush"; "engine_selector_hit"; "engine_selector_miss" ]
  | _ -> Alcotest.fail "expected traces on both sides"

(* Satellite regression: object-origin ids are per-evaluator, so two
   interleaved sessions mint the same ids as two sequential ones. *)
let test_origin_ids_per_session () =
  let mk () =
    let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
    Engine.Eval.create (Engine.Value.create_heap env)
  in
  let e1 = mk () and e2 = mk () in
  let interleaved =
    List.concat_map
      (fun _ -> [ Engine.Eval.fresh_origin e1; Engine.Eval.fresh_origin e2 ])
      [ (); (); () ]
  in
  Alcotest.(check (list int)) "interleaving cannot perturb ids" [ 1; 1; 2; 2; 3; 3 ]
    interleaved;
  let e3 = mk () in
  let sequential = List.map (fun _ -> Engine.Eval.fresh_origin e3) [ (); (); () ] in
  Alcotest.(check (list int)) "fresh instance counts from 1 again" [ 1; 2; 3 ] sequential

(* End-to-end flavour of the same property: two sessions interleaved by
   the fleet report exactly the cycles the runner reports for a solo
   run of the same bench. *)
let test_interleaved_sessions_match_solo () =
  let profile = Runtime.Profile.create () in
  let solo =
    Workloads.Runner.run_config ~mode:Pkru_safe.Config.Base ~profile ident_bench
  in
  let r =
    Fleet.run ~timeslice:100 ~sessions:2 [ Fleet.job_of_bench ident_bench ]
  in
  Alcotest.(check int) "both sessions complete" 2 r.Fleet.r_completed;
  List.iter
    (fun (sr : Fleet.session_result) ->
      Alcotest.(check int)
        (sr.Fleet.sr_name ^ " cycles match solo runner")
        solo.Workloads.Runner.cycles sr.Fleet.sr_cycles)
    r.Fleet.r_results

(* A starved shared page budget retires victims with Oom while the fleet
   completes; a generous one completes everything and reports budget
   accounting. *)
let test_shared_page_budget () =
  let jobs = [ Fleet.job_of_bench ident_bench ] in
  let starved = Fleet.run ~timeslice:200 ~max_live:8 ~page_budget:40 ~sessions:8 jobs in
  Alcotest.(check int) "every session retires" 8
    (starved.Fleet.r_completed + starved.Fleet.r_oom + starved.Fleet.r_failed);
  Alcotest.(check bool) "starvation produces oom outcomes" true (starved.Fleet.r_oom > 0);
  Alcotest.(check int) "no crashes, just oom" 0 starved.Fleet.r_failed;
  (match starved.Fleet.r_backing with
  | Some b -> Alcotest.(check bool) "denials counted" true (b.Fleet.bk_denials > 0)
  | None -> Alcotest.fail "expected backing stats");
  let fed = Fleet.run ~timeslice:200 ~max_live:4 ~page_budget:100_000 ~sessions:8 jobs in
  Alcotest.(check int) "generous budget completes all" 8 fed.Fleet.r_completed;
  match fed.Fleet.r_backing with
  | Some b ->
    Alcotest.(check int) "no denials" 0 b.Fleet.bk_denials;
    (* Sessions retire their pages, so the low-water mark stays well
       above budget-minus-one-session-times-max_live. *)
    Alcotest.(check bool) "retired sessions return pages" true (b.Fleet.bk_min_available > 0)
  | None -> Alcotest.fail "expected backing stats"

(* Telemetry is per machine: a sink attached to env A sees exactly A's
   events — the same trace as a solo run of A — however A's and B's
   scripts interleave, and B's events reach no sink.  A traced fleet run
   is likewise undisturbed by an unrelated environment's sink. *)
let test_telemetry_per_machine () =
  let setup () =
    let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
    let browser = Browser.create ~engine_seed:ident_bench.Workloads.Bench_def.engine_seed env in
    Browser.load_page browser ident_bench.Workloads.Bench_def.page;
    (env, browser)
  in
  let run browser = ignore (Browser.exec_script browser ident_bench.Workloads.Bench_def.script) in
  let traced_a ~with_b =
    let env_a, browser_a = setup () in
    let env_b, browser_b = setup () in
    let sink = Telemetry.Sink.create () in
    Telemetry.Ctx.with_sink (Pkru_safe.Env.ctx env_a) sink (fun () ->
        for _ = 1 to 3 do
          run browser_a;
          if with_b then run browser_b
        done);
    Alcotest.(check bool) "B has no sink" true
      ((Pkru_safe.Env.ctx env_b).Telemetry.Ctx.sink = None);
    sink
  in
  let interleaved = traced_a ~with_b:true and solo = traced_a ~with_b:false in
  Alcotest.(check bool) "A traced something" true (Telemetry.Sink.events_total solo > 0);
  Alcotest.(check string) "A's sink holds exactly A's events" (trace_json solo)
    (trace_json interleaved);
  let other = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
  let unrelated = Telemetry.Sink.create () in
  Telemetry.Ctx.with_sink (Pkru_safe.Env.ctx other) unrelated (fun () ->
      let r =
        Fleet.run ~telemetry:true ~timeslice:150 ~sessions:1 [ Fleet.job_of_bench ident_bench ]
      in
      Alcotest.(check int) "traced fleet session completes" 1 r.Fleet.r_completed;
      match r.Fleet.r_trace with
      | Some t ->
        Alcotest.(check bool) "fleet trace captured" true (Telemetry.Sink.events_total t > 0)
      | None -> Alcotest.fail "expected a fleet trace");
  Alcotest.(check int) "unrelated sink untouched" 0 (Telemetry.Sink.events_total unrelated)

(* The browser's selector split-memo is bounded (4096 entries) and
   counts its evictions. *)
let test_selector_memo_bounded () =
  let split_memo_cap = 4096 in
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
  let browser = Browser.create env in
  Browser.load_page browser "<div id=\"app\"><p>x</p></div>";
  (* The memo caches the split of each element's class attribute value;
     mutating the class to a fresh value before every class-selector
     query fills it well past the cap. *)
  ignore
    (Browser.exec_script browser
       (Printf.sprintf
          {|var root = domQuery('#app')[0];
            for (var i = 0; i < %d; i = i + 1) {
              domSetAttribute(root, 'class', 'c' + i + ' d' + i);
              domQuery('.needle');
            }|}
          (split_memo_cap + 64)));
  Alcotest.(check int) "one full memo evicted" split_memo_cap
    (Browser.selector_stats browser).Browser.sel_memo_evictions;
  Alcotest.(check int) "a fresh browser has evicted nothing" 0
    (Browser.selector_stats (Browser.create env)).Browser.sel_memo_evictions

let suite =
  [
    Alcotest.test_case "determinism across cpu counts" `Quick test_determinism_across_cpus;
    Alcotest.test_case "single-session bit-identity vs runner" `Quick
      test_single_session_bit_identity;
    Alcotest.test_case "origin ids are per-session" `Quick test_origin_ids_per_session;
    Alcotest.test_case "interleaved sessions match solo runner" `Quick
      test_interleaved_sessions_match_solo;
    Alcotest.test_case "shared page budget" `Quick test_shared_page_budget;
    Alcotest.test_case "telemetry is per machine" `Quick test_telemetry_per_machine;
    Alcotest.test_case "selector memo bounded" `Quick test_selector_memo_bounded;
  ]
