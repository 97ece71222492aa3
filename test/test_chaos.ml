(* Tests for the deterministic fault-injection harness and the
   enforcement-mode recovery policies end to end: the coverage-gap
   acceptance matrix, the cross-scenario invariants, determinism, and the
   bit-identity of Abort-policy runs with mitigator-less enforcement. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

let starts_with prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let run policy = Chaos.run ~scenario:Chaos.Coverage_gap ~policy ~seed:42 ()

let check_invariants (r : Chaos.report) =
  Alcotest.(check (list string))
    (Printf.sprintf "%s/%s invariants hold"
       (Chaos.scenario_to_string r.Chaos.scenario)
       (Runtime.Mitigator.policy_to_string r.Chaos.policy))
    [] r.Chaos.invariant_failures

(* The acceptance matrix: with 10% of the profile dropped, Abort dies like
   the seed, Emulate and Promote complete with incidents counted, Degrade
   fails the request gracefully. *)
let test_coverage_gap_abort () =
  let r = run Runtime.Mitigator.Abort in
  Alcotest.(check bool) "dies" false r.Chaos.completed;
  Alcotest.(check bool) "unresolved MPK fault" true
    (starts_with "unhandled-fault" r.Chaos.outcome && contains r.Chaos.outcome "SEGV_PKUERR");
  Alcotest.(check int) "no accounting" 0 r.Chaos.incidents;
  check_invariants r

let test_coverage_gap_emulate () =
  let r = run Runtime.Mitigator.Emulate in
  Alcotest.(check bool) "completes" true r.Chaos.completed;
  Alcotest.(check bool) "incidents counted" true (r.Chaos.incidents > 0);
  Alcotest.(check bool) "all incidents emulated" true
    (List.mem_assoc "emulated" r.Chaos.incident_outcomes);
  Alcotest.(check bool) "prometheus family carries the counts" true
    (contains r.Chaos.prometheus
       (Printf.sprintf "pkru_mitigation_total{outcome=\"emulated\",policy=\"emulate\"} %d"
          (List.assoc "emulated" r.Chaos.incident_outcomes)));
  check_invariants r

let test_coverage_gap_promote_converges () =
  let r = run Runtime.Mitigator.Promote in
  Alcotest.(check bool) "completes" true r.Chaos.completed;
  Alcotest.(check bool) "incidents counted" true (r.Chaos.incidents > 0);
  Alcotest.(check bool) "sites quarantined" true (r.Chaos.promoted_sites <> []);
  (match r.Chaos.rerun_incidents with
  | None -> Alcotest.fail "expected a rerun measurement"
  | Some rerun ->
    Alcotest.(check bool)
      (Printf.sprintf "rerun faults strictly less (%d < %d)" rerun r.Chaos.incidents)
      true
      (rerun < r.Chaos.incidents));
  check_invariants r

let test_coverage_gap_degrade () =
  let r = run Runtime.Mitigator.Degrade in
  Alcotest.(check bool) "dies gracefully" false r.Chaos.completed;
  Alcotest.(check bool) "degraded outcome" true (starts_with "degraded" r.Chaos.outcome);
  Alcotest.(check bool) "gate balance restored" true r.Chaos.gate_balanced;
  check_invariants r

let test_deterministic_replay () =
  let a = run Runtime.Mitigator.Promote in
  let b = run Runtime.Mitigator.Promote in
  Alcotest.(check string) "outcome replays" a.Chaos.outcome b.Chaos.outcome;
  Alcotest.(check int) "incidents replay" a.Chaos.incidents b.Chaos.incidents;
  Alcotest.(check (list string)) "promotions replay" a.Chaos.promoted_sites
    b.Chaos.promoted_sites;
  Alcotest.(check (list string)) "details replay" a.Chaos.details b.Chaos.details

(* Every scenario under every policy: whatever the injector does, the
   secret stays unreadable from U, graceful endings leave the gate
   balanced, and telemetry matches the mitigator's own books. *)
let test_all_scenarios_all_policies () =
  (* The matrix the chaos command runs: one seed for every cell. *)
  let reports =
    List.concat_map
      (fun scenario ->
        List.map
          (fun policy -> Chaos.run ~scenario ~policy ~seed:1337 ())
          Runtime.Mitigator.all_policies)
      Chaos.all_scenarios
  in
  Alcotest.(check int) "full matrix ran"
    (List.length Chaos.all_scenarios * List.length Runtime.Mitigator.all_policies)
    (List.length reports);
  List.iter check_invariants reports;
  List.iter
    (fun (r : Chaos.report) -> Alcotest.(check bool) "secret intact" true r.Chaos.secret_intact)
    reports

(* Abort bit-identity: an enforcement run with the Abort-policy mitigator
   installed must be indistinguishable — cycles, transitions, event trace —
   from one with no mitigator at all (same shape as the TLB equivalence
   tests). *)
let trace_json sink =
  Util.Json.to_string
    (Util.Json.List (List.map Telemetry.Event.record_to_json (Telemetry.Sink.events sink)))

let test_abort_bit_identical () =
  let bench =
    Workloads.Bench_def.bench ~page:(Workloads.Dom_scripts.page ~rows:6) "abort-eq"
      (Workloads.Dom_scripts.dom_attr ~iters:12)
  in
  let profile = Workloads.Runner.profile_bench bench in
  let run mitigation =
    Workloads.Runner.run_config ~telemetry:true ~profile
      (Pkru_safe.Config.make ?mitigation Pkru_safe.Config.Mpk)
      bench
  in
  let plain = run None in
  let abort = run (Some Runtime.Mitigator.Abort) in
  Alcotest.(check int) "cycles identical" plain.Workloads.Runner.cycles
    abort.Workloads.Runner.cycles;
  Alcotest.(check int) "transitions identical" plain.Workloads.Runner.transitions
    abort.Workloads.Runner.transitions;
  match (plain.Workloads.Runner.trace, abort.Workloads.Runner.trace) with
  | Some s_plain, Some s_abort ->
    Alcotest.(check int) "events_total identical" (Telemetry.Sink.events_total s_plain)
      (Telemetry.Sink.events_total s_abort);
    Alcotest.(check string) "event trace bit-identical" (trace_json s_plain)
      (trace_json s_abort);
    Alcotest.(check int) "no mitigation counters under Abort" 0
      (List.fold_left
         (fun acc (name, n) -> if starts_with "mitigation." name then acc + n else acc)
         0
         (Telemetry.Sink.counters s_abort))
  | _ -> Alcotest.fail "expected traces from both runs"

let test_report_json_shape () =
  let r = run Runtime.Mitigator.Emulate in
  let json = Util.Json.to_string (Chaos.report_to_json r) in
  List.iter
    (fun needle -> Alcotest.(check bool) ("json has " ^ needle) true (contains json needle))
    [ "\"scenario\""; "\"policy\""; "\"incidents\""; "\"secret_intact\""; "\"outcome\"" ]

(* The acceptance scenario for the flight recorder: a gate-PKRU
   corruption kill must leave a post-mortem whose causal span chain is
   still open at the corrupted transition, with the intended vs observed
   PKRU values in the details. *)
let test_gate_corruption_flight_dump () =
  let r = Chaos.run ~scenario:Chaos.Gate_corruption ~policy:Runtime.Mitigator.Abort ~seed:7 () in
  Alcotest.(check bool) "gate verify killed the run" true (starts_with "killed" r.Chaos.outcome);
  check_invariants r;
  match r.Chaos.flight_dumps with
  | [] -> Alcotest.fail "expected a flight dump from the gate kill"
  | dump :: _ ->
    Alcotest.(check string) "dump reason" "gate PKRU verification mismatch"
      (Util.Json.to_str (Util.Json.member "reason" dump));
    let details = Util.Json.member "details" dump in
    let intended = Util.Json.to_int (Util.Json.member "intended_pkru" details) in
    let observed = Util.Json.to_int (Util.Json.member "observed_pkru" details) in
    Alcotest.(check bool) "intended <> observed" true (intended <> observed);
    (* The open span chain names the corrupted transition: a gate-kind
       span under the chaos injection window. *)
    let opened =
      List.map Telemetry.Span.record_of_json
        (Util.Json.to_list
           (Util.Json.member "open" (Util.Json.member "spans" dump)))
    in
    Alcotest.(check bool) "a gate span is open at death" true
      (List.exists
         (fun (s : Telemetry.Span.record) ->
           s.Telemetry.Span.kind = Telemetry.Span.Gate
           && starts_with "gate:" s.Telemetry.Span.name)
         opened);
    Alcotest.(check bool) "the chaos window is open at death" true
      (List.exists
         (fun (s : Telemetry.Span.record) ->
           s.Telemetry.Span.kind = Telemetry.Span.Chaos
           && starts_with "chaos:gate-corruption" s.Telemetry.Span.name)
         opened);
    (* The doctor rendering of the same dump names the transition. *)
    let report = Telemetry.Flight.render dump in
    Alcotest.(check bool) "doctor names the corrupted transition" true
      (contains report "gate:");
    Alcotest.(check bool) "doctor shows the causal chain" true
      (contains report "causal chain open at death")

let suite =
  [
    Alcotest.test_case "coverage gap: abort dies like seed" `Quick test_coverage_gap_abort;
    Alcotest.test_case "coverage gap: emulate completes" `Quick test_coverage_gap_emulate;
    Alcotest.test_case "coverage gap: promote converges" `Quick
      test_coverage_gap_promote_converges;
    Alcotest.test_case "coverage gap: degrade graceful" `Quick test_coverage_gap_degrade;
    Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
    Alcotest.test_case "all scenarios x policies" `Slow test_all_scenarios_all_policies;
    Alcotest.test_case "abort bit-identical to seed" `Quick test_abort_bit_identical;
    Alcotest.test_case "report json shape" `Quick test_report_json_shape;
    Alcotest.test_case "gate corruption leaves a flight dump" `Quick
      test_gate_corruption_flight_dump;
  ]
