(* Tests for the bench regression sentinel: probe determinism, baseline
   round-trips, the comparison verdicts (any drift or missing probe
   fails), and that the checked-in BENCH_BASELINE.json still matches this
   tree's deterministic cycles. *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

let fresh = lazy (Workloads.Sentinel.run_probes ())

let test_probes_deterministic () =
  let a = Lazy.force fresh in
  let b = Workloads.Sentinel.run_probes () in
  Alcotest.(check (list string)) "probe names fixed"
    [ "dom-attr:mpk"; "dom-create:mpk"; "fft:base"; "richards:mpk"; "dom-attr:mpk:emulate";
      "dom-attr:mpk:census"; "richards:bc-ref"; "richards:bc-threaded" ]
    (List.map (fun (r : Workloads.Sentinel.probe_result) -> r.Workloads.Sentinel.p_name) a);
  List.iter2
    (fun (x : Workloads.Sentinel.probe_result) (y : Workloads.Sentinel.probe_result) ->
      Alcotest.(check int)
        (x.Workloads.Sentinel.p_name ^ " cycles replay")
        x.Workloads.Sentinel.p_cycles y.Workloads.Sentinel.p_cycles;
      Alcotest.(check int)
        (x.Workloads.Sentinel.p_name ^ " transitions replay")
        x.Workloads.Sentinel.p_transitions y.Workloads.Sentinel.p_transitions)
    a b

let test_baseline_roundtrip () =
  let results = Lazy.force fresh in
  let json = Workloads.Sentinel.baseline_json ~commit:"deadbeef" results in
  let commit, back =
    Workloads.Sentinel.baseline_of_json (Util.Json.of_string (Util.Json.to_string json))
  in
  Alcotest.(check string) "commit survives" "deadbeef" commit;
  Alcotest.(check int) "probe count survives" (List.length results) (List.length back);
  List.iter2
    (fun (a : Workloads.Sentinel.probe_result) (b : Workloads.Sentinel.probe_result) ->
      Alcotest.(check string) "name" a.Workloads.Sentinel.p_name b.Workloads.Sentinel.p_name;
      Alcotest.(check int) "cycles" a.Workloads.Sentinel.p_cycles b.Workloads.Sentinel.p_cycles;
      Alcotest.(check int) "transitions" a.Workloads.Sentinel.p_transitions
        b.Workloads.Sentinel.p_transitions)
    results back;
  Alcotest.check_raises "wrong schema rejected"
    (Invalid_argument
       "Sentinel: baseline schema \"pkru-safe.bench-baseline/0\", this build expects \
        \"pkru-safe.bench-baseline/1\"")
    (fun () ->
      ignore
        (Workloads.Sentinel.baseline_of_json
           (Util.Json.Obj
              [
                ("schema", Util.Json.String "pkru-safe.bench-baseline/0");
                ("probes", Util.Json.List []);
              ])))

let test_clean_compare () =
  let results = Lazy.force fresh in
  let verdicts = Workloads.Sentinel.compare_results ~baseline:results results in
  Alcotest.(check bool) "no regression against itself" false
    (Workloads.Sentinel.has_regression verdicts);
  List.iter
    (fun (name, _, v) ->
      Alcotest.(check bool) (name ^ " matches") true (v = Workloads.Sentinel.Match))
    verdicts

(* An injected slowdown — the simulation suddenly charging more cycles —
   must be flagged as hard drift. *)
let test_injected_slowdown_flagged () =
  let results = Lazy.force fresh in
  let slowed =
    List.mapi
      (fun i (r : Workloads.Sentinel.probe_result) ->
        if i = 0 then { r with Workloads.Sentinel.p_cycles = r.Workloads.Sentinel.p_cycles + 137 }
        else r)
      results
  in
  let verdicts = Workloads.Sentinel.compare_results ~baseline:results slowed in
  Alcotest.(check bool) "regression detected" true (Workloads.Sentinel.has_regression verdicts);
  (match verdicts with
  | (_, _, Workloads.Sentinel.Cycle_drift { base_cycles; _ }) :: rest ->
    Alcotest.(check int) "baseline cycles reported"
      (List.hd results).Workloads.Sentinel.p_cycles base_cycles;
    List.iter
      (fun (name, _, v) ->
        Alcotest.(check bool) (name ^ " unaffected") true (v = Workloads.Sentinel.Match))
      rest
  | _ -> Alcotest.fail "expected Cycle_drift on the first probe");
  let rendered = Workloads.Sentinel.render_comparison ~commit:"test" verdicts in
  Alcotest.(check bool) "rendering flags the drift" true (contains rendered "DRIFT");
  Alcotest.(check bool) "rendering counts it" true (contains rendered "1 drift")

let test_missing_probes () =
  let results = Lazy.force fresh in
  let baseline = List.tl results in
  let verdicts = Workloads.Sentinel.compare_results ~baseline results in
  Alcotest.(check bool) "new probe is a regression" true
    (Workloads.Sentinel.has_regression verdicts);
  (match List.assoc_opt
           (List.hd results).Workloads.Sentinel.p_name
           (List.map (fun (n, _, v) -> (n, v)) verdicts)
   with
  | Some Workloads.Sentinel.Missing_in_baseline -> ()
  | _ -> Alcotest.fail "expected Missing_in_baseline for the new probe");
  let verdicts = Workloads.Sentinel.compare_results ~baseline:results (List.tl results) in
  Alcotest.(check bool) "vanished probe is a regression" true
    (Workloads.Sentinel.has_regression verdicts);
  match List.assoc_opt
          (List.hd results).Workloads.Sentinel.p_name
          (List.map (fun (n, _, v) -> (n, v)) verdicts)
  with
  | Some Workloads.Sentinel.Missing_in_run -> ()
  | _ -> Alcotest.fail "expected Missing_in_run for the vanished probe"

(* The acceptance check: the checked-in baseline must compare clean for
   an unmodified tree. *)
let baseline_path () =
  List.find_opt Sys.file_exists
    [ "BENCH_BASELINE.json"; "../BENCH_BASELINE.json"; "../../BENCH_BASELINE.json" ]

let test_checked_in_baseline () =
  match baseline_path () with
  | None -> Alcotest.fail "BENCH_BASELINE.json not found (run bench --baseline-out)"
  | Some path ->
    let _, baseline =
      Workloads.Sentinel.baseline_of_json
        (Util.Json.of_string (In_channel.with_open_text path In_channel.input_all))
    in
    let verdicts = Workloads.Sentinel.compare_results ~baseline (Lazy.force fresh) in
    List.iter
      (fun (name, _, v) ->
        Alcotest.(check bool)
          (name ^ " cycles match the checked-in baseline")
          true
          (v = Workloads.Sentinel.Match))
      verdicts

let suite =
  [
    Alcotest.test_case "probes are deterministic" `Quick test_probes_deterministic;
    Alcotest.test_case "baseline round-trips" `Quick test_baseline_roundtrip;
    Alcotest.test_case "self-compare is clean" `Quick test_clean_compare;
    Alcotest.test_case "injected slowdown is flagged" `Quick test_injected_slowdown_flagged;
    Alcotest.test_case "missing probes" `Quick test_missing_probes;
    Alcotest.test_case "checked-in baseline compares clean" `Quick test_checked_in_baseline;
  ]
