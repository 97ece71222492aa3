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

(* Where the yields fall: a fixed mixed fleet's yield and steal counts
   and every session's cycles, at three timeslices, recorded from a
   budget-counting yield hook called after every tick.  A yield one tick
   early or late moves the counts; the cycles are the same at every
   timeslice. *)
let test_yield_counts_pinned () =
  List.iter
    (fun (timeslice, yields, steals, cycles) ->
      let r = Fleet.run ~cpus:3 ~timeslice ~max_live:4 ~sessions:9 mixed_jobs in
      let what = Printf.sprintf "timeslice %d" timeslice in
      Alcotest.(check int) (what ^ ": all complete") 9 r.Fleet.r_completed;
      Alcotest.(check int) (what ^ ": yields") yields r.Fleet.r_yields;
      Alcotest.(check int) (what ^ ": steals") steals r.Fleet.r_steals;
      Alcotest.(check (list int)) (what ^ ": session cycles") cycles
        (List.map (fun (sr : Fleet.session_result) -> sr.Fleet.sr_cycles) r.Fleet.r_results))
    (let cycles = [ 15042; 5758; 15042; 5758; 15042; 5758; 15042; 5758; 15042 ] in
     [ (1, 12683, 1, cycles); (100, 120, 1, cycles); (1000, 10, 0, cycles) ])

(* A single-session fleet run is the runner's measurement, bit for bit:
   cycles, transitions, the event trace and every injected counter — even
   though the fleet run parks and resumes the session mid-script. *)
let test_single_session_bit_identity () =
  let profile = Runtime.Profile.create () in
  let runner =
    Workloads.Runner.run_config ~telemetry:true ~profile
      (Pkru_safe.Config.make Pkru_safe.Config.Base)
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
    Workloads.Runner.run_config ~profile (Pkru_safe.Config.make Pkru_safe.Config.Base) ident_bench
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

(* Every field of a fleet result, one line for the fleet and one per
   session (floats to 17 digits, so a pin holds them exactly). *)
let render (r : Fleet.result) =
  Printf.sprintf
    "sessions %d cpus %d timeslice %d makespan %d per_sec %.17g p50 %.17g p99 %.17g total %d \
     yields %d steals %d completed %d oom %d failed %d%s"
    r.Fleet.r_sessions r.Fleet.r_cpus r.Fleet.r_timeslice r.Fleet.r_makespan_cycles
    r.Fleet.r_sessions_per_sec r.Fleet.r_p50_latency_ns r.Fleet.r_p99_latency_ns
    r.Fleet.r_total_cycles r.Fleet.r_yields r.Fleet.r_steals r.Fleet.r_completed r.Fleet.r_oom
    r.Fleet.r_failed
    (match r.Fleet.r_backing with
    | Some b ->
      Printf.sprintf " budget %d low-water %d denials %d" b.Fleet.bk_total_pages
        b.Fleet.bk_min_available b.Fleet.bk_denials
    | None -> "")
  :: List.map
       (fun (sr : Fleet.session_result) ->
         Printf.sprintf "%d %s cpu %d cycles %d transitions %d checksum %d latency %d %s"
           sr.Fleet.sr_index sr.Fleet.sr_name sr.Fleet.sr_cpu sr.Fleet.sr_cycles
           sr.Fleet.sr_transitions sr.Fleet.sr_checksum sr.Fleet.sr_latency_cycles
           (Fleet.outcome_to_string sr.Fleet.sr_outcome))
       r.Fleet.r_results

(* Three job kinds, so sessions of different weights and page demands
   contend. *)
let pin_jobs =
  match mixed_jobs with
  | [ light; heavy ] -> [ light; Fleet.job_of_bench ident_bench; heavy ]
  | _ -> assert false

(* Pinned fleets: (name, run, every field of the result).  A starved
   shared page budget decides which sessions run dry by the order in
   which the scheduler serves their slices; at 30 pages some sessions
   die while their environment is built.  The armed [gate_reverify]
   fleet runs profiling builds, so its sessions cross gates. *)
let pinned_fleets =
  [
    ( "page budget 30",
      (fun ?domains () ->
        Fleet.run ?domains ~cpus:2 ~timeslice:200 ~max_live:6 ~page_budget:30 ~sessions:9
          pin_jobs),
      [
          "sessions 9 cpus 2 timeslice 200 makespan 23796 per_sec 378214.82602118002 p50 11790 p99 23241.280000000002 total 40658 yields 16 steals 2 completed 1 oom 8 failed 0 budget 30 low-water 0 denials 8";
          "0 light#0 cpu 0 cycles 15042 transitions 0 checksum 787593613 latency 23796 completed";
          "1 ident#1 cpu 1 cycles 2857 transitions 0 checksum 896432698 latency 2857 oom";
          "2 heavy#2 cpu 1 cycles 5029 transitions 0 checksum 434730258 latency 16862 oom";
          "3 light#3 cpu 1 cycles 7672 transitions 0 checksum 740856798 latency 10529 oom";
          "4 ident#4 cpu 0 cycles 0 transitions 0 checksum 808584706 latency 13044 oom";
          "5 heavy#5 cpu 1 cycles 5029 transitions 0 checksum 434730258 latency 15558 oom";
          "6 light#6 cpu 1 cycles 0 transitions 0 checksum 808584706 latency 11790 oom";
          "7 ident#7 cpu 1 cycles 0 transitions 0 checksum 808584706 latency 4118 oom";
          "8 heavy#8 cpu 1 cycles 5029 transitions 0 checksum 434730258 latency 3425 oom";
      ] );
    ( "page budget 60",
      (fun ?domains () ->
        Fleet.run ?domains ~cpus:2 ~timeslice:200 ~max_live:6 ~page_budget:60 ~sessions:9
          pin_jobs),
      [
          "sessions 9 cpus 2 timeslice 200 makespan 31543 per_sec 285324.79472466157 p50 15901 p99 31254.040000000001 total 59474 yields 18 steals 0 completed 4 oom 5 failed 0 budget 60 low-water 7 denials 5";
          "0 light#0 cpu 0 cycles 15042 transitions 0 checksum 787593613 latency 31543 completed";
          "1 ident#1 cpu 1 cycles 6829 transitions 0 checksum 694685888 latency 26809 completed";
          "2 heavy#2 cpu 0 cycles 5029 transitions 0 checksum 434730258 latency 20687 oom";
          "3 light#3 cpu 1 cycles 7672 transitions 0 checksum 740856798 latency 12696 oom";
          "4 ident#4 cpu 0 cycles 2857 transitions 0 checksum 896432698 latency 15901 oom";
          "5 heavy#5 cpu 1 cycles 5758 transitions 0 checksum 7064870 latency 27931 completed";
          "6 light#6 cpu 1 cycles 7672 transitions 0 checksum 740856798 latency 12860 oom";
          "7 ident#7 cpu 0 cycles 2857 transitions 0 checksum 896432698 latency 3918 oom";
          "8 heavy#8 cpu 0 cycles 5758 transitions 0 checksum 7064870 latency 7966 completed";
      ] );
    ( "gate_reverify armed",
      (fun ?domains () ->
        Fleet.run ?domains ~mode:Pkru_safe.Config.Profiling
          ~defenses:Pkru_safe.Config.all_defenses ~cpus:2 ~timeslice:150 ~max_live:4
          ~sessions:6 pin_jobs),
      [
          "sessions 6 cpus 2 timeslice 150 makespan 9039591 per_sec 663.74684429859713 p50 6665278.5 p99 8987806.6500000004 total 17045290 yields 38 steals 1 completed 6 oom 0 failed 0";
          "0 light#0 cpu 0 cycles 4818518 transitions 2 checksum 746059843 latency 9039591 completed";
          "1 ident#1 cpu 1 cycles 1592693 transitions 28 checksum 887156988 latency 6405741 completed";
          "2 heavy#2 cpu 0 cycles 2111434 transitions 2 checksum 458025814 latency 6924816 completed";
          "3 light#3 cpu 1 cycles 4818518 transitions 2 checksum 746059843 latency 8003904 completed";
          "4 ident#4 cpu 1 cycles 1592693 transitions 28 checksum 887156988 latency 1594515 completed";
          "5 heavy#5 cpu 1 cycles 2111434 transitions 2 checksum 458025814 latency 1080883 completed";
      ] );
  ]

let test_pinned_fleet (name, (run : ?domains:int -> unit -> Fleet.result), pins) () =
  Alcotest.(check (list string)) name pins (render (run ()))

(* Sessions run on a domain pool and the schedule is replayed over their
   recorded slices, so no field of a result may depend on the domain
   count: an uncontended fleet (against the yield, steal and cycle pins
   above), the starved budgets (where the replay re-runs the sessions
   the shared budget refuses) and the armed fleet, at 1 and 2 domains. *)
let test_domain_count () =
  let uncontended ?domains () =
    Fleet.run ?domains ~cpus:3 ~timeslice:100 ~max_live:4 ~sessions:9 mixed_jobs
  in
  let r1 = uncontended ~domains:1 () and r2 = uncontended ~domains:2 () in
  Alcotest.(check (list string)) "uncontended: 1 vs 2 domains" (render r1) (render r2);
  Alcotest.(check (list int)) "uncontended: yields, steals" [ 120; 1 ]
    [ r2.Fleet.r_yields; r2.Fleet.r_steals ];
  Alcotest.(check (list int)) "uncontended: session cycles"
    [ 15042; 5758; 15042; 5758; 15042; 5758; 15042; 5758; 15042 ]
    (List.map (fun (sr : Fleet.session_result) -> sr.Fleet.sr_cycles) r2.Fleet.r_results);
  List.iter
    (fun (name, (run : ?domains:int -> unit -> Fleet.result), pins) ->
      List.iter
        (fun domains ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s at %d domain(s)" name domains)
            pins
            (render (run ~domains ())))
        [ 1; 2 ])
    pinned_fleets

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
    Alcotest.test_case "yield and steal counts pinned" `Quick test_yield_counts_pinned;
    Alcotest.test_case "single-session bit-identity vs runner" `Quick
      test_single_session_bit_identity;
    Alcotest.test_case "origin ids are per-session" `Quick test_origin_ids_per_session;
    Alcotest.test_case "interleaved sessions match solo runner" `Quick
      test_interleaved_sessions_match_solo;
    Alcotest.test_case "shared page budget" `Quick test_shared_page_budget;
  ]
  @ List.map
      (fun ((name, _, _) as p) -> Alcotest.test_case ("pinned: " ^ name) `Quick (test_pinned_fleet p))
      pinned_fleets
  @ [
    Alcotest.test_case "results independent of the domain count" `Quick test_domain_count;
    Alcotest.test_case "telemetry is per machine" `Quick test_telemetry_per_machine;
    Alcotest.test_case "selector memo bounded" `Quick test_selector_memo_bounded;
  ]
