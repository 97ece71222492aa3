(* Tests for the telemetry analysis tier: site-heat / flow-matrix
   attribution over synthetic traces, the metrics registry and its
   Prometheus exposition, the cycle-sampling profiler, the workload name
   registry, and the end-to-end consistency of sampled stacks against the
   flow matrix's cycle accounting. *)

let emit sink ~ts event = Telemetry.Sink.emit sink ~ts ~cpu:0 event

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* --- Attribution: site heat over a synthetic trace --- *)

let test_site_heat_synthetic () =
  let sink = Telemetry.Sink.create () in
  let alloc ~ts ?site ~addr ~size compartment =
    emit sink ~ts (Telemetry.Event.Alloc { compartment; site; addr; size })
  in
  alloc ~ts:10 ~site:"alpha" ~addr:0x100 ~size:64 Telemetry.Event.Trusted;
  alloc ~ts:20 ~site:"alpha" ~addr:0x200 ~size:32 Telemetry.Event.Trusted;
  alloc ~ts:30 ~site:"beta" ~addr:0x300 ~size:128 Telemetry.Event.Untrusted;
  alloc ~ts:40 ~addr:0x400 ~size:8 Telemetry.Event.Untrusted;
  emit sink ~ts:50 (Telemetry.Event.Free { compartment = Telemetry.Event.Trusted; addr = 0x200 });
  (* A fault at an interior address of beta's live allocation, and one at
     an address nothing owns. *)
  emit sink ~ts:60 (Telemetry.Event.Mpk_fault { addr = 0x300 + 17; pkey = 1 });
  emit sink ~ts:70 (Telemetry.Event.Mpk_fault { addr = 0x9999; pkey = 1 });
  (* A free of an address whose alloc the trace never saw. *)
  emit sink ~ts:80 (Telemetry.Event.Free { compartment = Telemetry.Event.Trusted; addr = 0x777 });
  let a = Telemetry.Attribution.of_sink sink in
  let site key =
    match Telemetry.Attribution.site_stats a key with
    | Some s -> s
    | None -> Alcotest.fail ("missing site " ^ key)
  in
  let alpha = site "alpha" in
  Alcotest.(check int) "alpha allocs" 2 alpha.Telemetry.Attribution.allocs;
  Alcotest.(check int) "alpha frees" 1 alpha.Telemetry.Attribution.frees;
  Alcotest.(check int) "alpha bytes" 96 alpha.Telemetry.Attribution.bytes_allocated;
  Alcotest.(check int) "alpha live" 64 alpha.Telemetry.Attribution.live_bytes;
  Alcotest.(check int) "alpha peak" 96 alpha.Telemetry.Attribution.peak_live_bytes;
  Alcotest.(check string) "alpha pool" "MT"
    (Telemetry.Attribution.pool_of_site alpha);
  let beta = site "beta" in
  Alcotest.(check string) "beta pool" "MU" (Telemetry.Attribution.pool_of_site beta);
  Alcotest.(check int) "fault lands on beta" 1 beta.Telemetry.Attribution.mpk_faults;
  Alcotest.(check int) "alpha takes no fault" 0 alpha.Telemetry.Attribution.mpk_faults;
  let unattr = site "(unattributed)" in
  Alcotest.(check int) "unattributed alloc counted" 1 unattr.Telemetry.Attribution.allocs;
  Alcotest.(check int) "unmatched free counted" 1 (Telemetry.Attribution.unmatched_frees a);
  let flow = Telemetry.Attribution.flow a in
  Alcotest.(check int) "allocs to MT" 2 flow.Telemetry.Attribution.allocs_mt;
  Alcotest.(check int) "allocs to MU" 2 flow.Telemetry.Attribution.allocs_mu;
  Alcotest.(check int) "both faults in matrix" 2 flow.Telemetry.Attribution.mpk_faults;
  (* Sites sort descending by bytes allocated. *)
  Alcotest.(check (list string)) "heat order" [ "beta"; "alpha"; "(unattributed)" ]
    (List.map
       (fun (s : Telemetry.Attribution.site) -> s.Telemetry.Attribution.site)
       (Telemetry.Attribution.sites a))

(* --- Attribution: flow matrix cycle accounting --- *)

let test_flow_matrix_cycles () =
  let sink = Telemetry.Sink.create () in
  (* T [0,100) -> U [100,300) -> nested callback into T [300,350)
     -> back to U [350,400) -> back to T [400,500). *)
  emit sink ~ts:100 (Telemetry.Event.Gate_enter { target = Telemetry.Event.Untrusted });
  emit sink ~ts:300 (Telemetry.Event.Gate_enter { target = Telemetry.Event.Trusted });
  emit sink ~ts:350 (Telemetry.Event.Gate_exit { target = Telemetry.Event.Trusted });
  emit sink ~ts:400 (Telemetry.Event.Gate_exit { target = Telemetry.Event.Untrusted });
  let a = Telemetry.Attribution.of_sink ~total_cycles:500 sink in
  let flow = Telemetry.Attribution.flow a in
  Alcotest.(check int) "T->U" 1 flow.Telemetry.Attribution.t_to_u;
  Alcotest.(check int) "U->T" 1 flow.Telemetry.Attribution.u_to_t;
  Alcotest.(check int) "crossings" 4 flow.Telemetry.Attribution.crossings;
  Alcotest.(check int) "max nesting" 2 flow.Telemetry.Attribution.max_nesting;
  Alcotest.(check int) "cycles in T" (100 + 50 + 100) flow.Telemetry.Attribution.cycles_trusted;
  Alcotest.(check int) "cycles in U" (200 + 50) flow.Telemetry.Attribution.cycles_untrusted;
  Alcotest.(check int) "cycles partition the run" 500 (Telemetry.Attribution.total_cycles a);
  let share key =
    Util.Json.(to_float (member key (member "flow_matrix" (Telemetry.Attribution.to_json a))))
  in
  Alcotest.(check (float 1e-9)) "T share" 0.5 (share "cycle_share_trusted");
  Alcotest.(check (float 1e-9)) "U share" 0.5 (share "cycle_share_untrusted")

let test_flow_exit_without_enter () =
  (* The matching enter was evicted from the ring: the exit's target still
     identifies the compartment being left. *)
  let sink = Telemetry.Sink.create () in
  emit sink ~ts:80 (Telemetry.Event.Gate_exit { target = Telemetry.Event.Untrusted });
  let a = Telemetry.Attribution.of_sink ~total_cycles:100 sink in
  let flow = Telemetry.Attribution.flow a in
  (* Before the exit the analysis assumed T (the default start), so those
     80 cycles stay in T; afterwards the inferred compartment is T too. *)
  Alcotest.(check int) "tail charged to inferred T" 100
    flow.Telemetry.Attribution.cycles_trusted;
  Alcotest.(check int) "crossings still counted" 1 flow.Telemetry.Attribution.crossings

let test_attribution_json_roundtrip () =
  let sink = Telemetry.Sink.create () in
  emit sink ~ts:5
    (Telemetry.Event.Alloc
       { compartment = Telemetry.Event.Trusted; site = Some "alpha"; addr = 16; size = 48 });
  emit sink ~ts:10 (Telemetry.Event.Gate_enter { target = Telemetry.Event.Untrusted });
  let a = Telemetry.Attribution.of_sink ~total_cycles:20 sink in
  let parsed =
    Util.Json.of_string (Util.Json.to_string (Telemetry.Attribution.to_json ~site_limit:5 a))
  in
  let heat = Util.Json.member "site_heat" parsed in
  Alcotest.(check int) "sites_total" 1 (Util.Json.to_int (Util.Json.member "sites_total" heat));
  let flow = Util.Json.member "flow_matrix" parsed in
  Alcotest.(check int) "t_to_u" 1 (Util.Json.to_int (Util.Json.member "t_to_u" flow));
  Alcotest.(check int) "cycles_trusted" 10
    (Util.Json.to_int (Util.Json.member "cycles_trusted" flow));
  Alcotest.(check int) "cycles_untrusted" 10
    (Util.Json.to_int (Util.Json.member "cycles_untrusted" flow))

(* --- Metrics registry --- *)

let test_metrics_cells () =
  let reg = Telemetry.Metrics.create () in
  let c = Telemetry.Metrics.counter reg ~help:"total things" "things_total" in
  Telemetry.Metrics.incr c;
  Telemetry.Metrics.incr ~by:4 c;
  Alcotest.(check int) "counter accumulates" 5 !c;
  let c' = Telemetry.Metrics.counter reg "things_total" in
  Alcotest.(check bool) "same cell returned" true (c == c');
  let labelled = Telemetry.Metrics.counter reg ~labels:[ ("kind", "alloc") ] "things_total" in
  Alcotest.(check bool) "distinct label set, distinct cell" false (c == labelled);
  let g = Telemetry.Metrics.gauge reg "depth" in
  Telemetry.Metrics.set g 3.5;
  Alcotest.(check (float 1e-9)) "gauge set" 3.5 !g;
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics: \"things_total\" already registered as a counter, not a gauge")
    (fun () -> ignore (Telemetry.Metrics.gauge reg "things_total"));
  Alcotest.(check bool) "invalid name rejected" true
    (match Telemetry.Metrics.counter reg "0bad name" with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_metrics_series_windows () =
  let reg = Telemetry.Metrics.create () in
  let s = Telemetry.Metrics.series reg ~window:100 "allocs_per_window" in
  List.iter
    (fun (cycle, v) -> Telemetry.Metrics.observe_series s ~cycle v)
    [ (0, 1.0); (99, 1.0); (100, 1.0); (250, 2.0); (250, 3.0) ];
  Alcotest.(check string) "bucketed by window start"
    "# TYPE allocs_per_window gauge\nallocs_per_window{window_start=\"0\"} 2\n\
     allocs_per_window{window_start=\"100\"} 1\nallocs_per_window{window_start=\"200\"} 5\n"
    (Telemetry.Metrics.expose reg);
  Alcotest.(check int) "window" 100 (Telemetry.Metrics.series_window s)

let test_metrics_expose_format () =
  let reg = Telemetry.Metrics.create () in
  let c =
    Telemetry.Metrics.counter reg ~help:"events by kind"
      ~labels:[ ("kind", "gate\"x\"\n") ]
      "pkru_events_total"
  in
  Telemetry.Metrics.incr ~by:7 c;
  let h = Telemetry.Metrics.histogram reg ~help:"sizes" "pkru_sizes" in
  List.iter (Telemetry.Histogram.observe h) [ 1; 2; 1000 ];
  let text = Telemetry.Metrics.expose reg in
  let has needle = contains text needle in
  Alcotest.(check bool) "HELP line" true (has "# HELP pkru_events_total events by kind");
  Alcotest.(check bool) "TYPE line" true (has "# TYPE pkru_events_total counter");
  Alcotest.(check bool) "label value escaped" true
    (has {|pkru_events_total{kind="gate\"x\"\n"} 7|});
  Alcotest.(check bool) "histogram type" true (has "# TYPE pkru_sizes histogram");
  Alcotest.(check bool) "cumulative +Inf bucket" true (has {|pkru_sizes_bucket{le="+Inf"} 3|});
  Alcotest.(check bool) "sum line" true (has "pkru_sizes_sum 1003");
  Alcotest.(check bool) "count line" true (has "pkru_sizes_count 3")

(* --- Sampler mechanics --- *)

let test_sampler_credit_accumulation () =
  let s = Telemetry.Sampler.create ~every:10 in
  Telemetry.Sampler.set_provider s (fun () -> [ "trusted"; "untrusted" ]);
  Telemetry.Sampler.tick s 25;
  (* 2 periods elapsed, 5 credit left *)
  Telemetry.Sampler.tick s 4;
  (* still under the period: no sample *)
  Telemetry.Sampler.tick s 1;
  (* credit reaches 10: one more *)
  Alcotest.(check int) "samples proportional to cycles" 3 (Telemetry.Sampler.samples_total s);
  Alcotest.(check (list (pair string int))) "folded stack" [ ("trusted;untrusted", 3) ]
    (Telemetry.Sampler.stacks s);
  Alcotest.(check string) "folded text" "trusted;untrusted 3\n" (Telemetry.Sampler.to_folded s);
  Alcotest.(check (list (pair string (float 1e-9)))) "leaf shares" [ ("untrusted", 1.0) ]
    (Telemetry.Sampler.leaf_shares s)

let test_sampler_restores_on_raise () =
  let ctx = Telemetry.Ctx.create () in
  Alcotest.(check bool) "empty by default" true (ctx.Telemetry.Ctx.sampler = None);
  let s = Telemetry.Sampler.create ~every:4 in
  (try Telemetry.Ctx.with_sampler ctx s (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" true (ctx.Telemetry.Ctx.sampler = None);
  Alcotest.check_raises "period must be positive"
    (Invalid_argument "Sampler.create: every must be positive") (fun () ->
      ignore (Telemetry.Sampler.create ~every:0))

(* --- The workload name registry --- *)

let test_registry_lookup_errors () =
  (match Workloads.Registry.suite_of_name "kraken" with
  | Ok s -> Alcotest.(check string) "suite found" "Kraken" s.Workloads.Bench_def.suite_name
  | Error msg -> Alcotest.fail msg);
  (match Workloads.Registry.suite_of_name "chromium" with
  | Ok _ -> Alcotest.fail "bogus suite accepted"
  | Error msg ->
    List.iter
      (fun name ->
        Alcotest.(check bool) ("suite error lists " ^ name) true (contains msg name))
      [ "dromaeo"; "dom"; "v8"; "sunspider"; "jslib"; "kraken"; "octane"; "jetstream2" ]);
  match Workloads.Registry.bench_of_name "no-such-bench" with
  | Ok _ -> Alcotest.fail "bogus bench accepted"
  | Error msg ->
    Alcotest.(check bool) "bench error lists a valid name" true (contains msg "dom-attr");
    Alcotest.(check bool) "registry enumerates benches" true
      (List.length Workloads.Registry.benches > 50)

(* --- End to end: sampled profile vs the flow matrix --- *)

let sampled_bench =
  Workloads.Bench_def.bench ~page:(Workloads.Dom_scripts.page ~rows:4) "attribution-bench"
    (Workloads.Dom_scripts.dom_attr ~iters:8)

let test_sampled_profile_matches_flow_matrix () =
  let profile =
    Workloads.Runner.profile_suite
      { Workloads.Bench_def.suite_name = "attribution"; benches = [ sampled_bench ] }
  in
  let m =
    Workloads.Runner.run_config ~telemetry:true ~sample_every:64 ~mode:Pkru_safe.Config.Mpk
      ~profile sampled_bench
  in
  let sink = Option.get m.Workloads.Runner.trace in
  let sampler = Option.get m.Workloads.Runner.samples in
  (* The consistency check below assumes the full trace was retained. *)
  Alcotest.(check int) "no events dropped" 0 (Telemetry.Sink.dropped sink);
  let a = Telemetry.Attribution.of_sink ~total_cycles:m.Workloads.Runner.cycles sink in
  let flow = Telemetry.Attribution.flow a in
  Alcotest.(check int) "attributed cycles partition the run" m.Workloads.Runner.cycles
    (flow.Telemetry.Attribution.cycles_trusted + flow.Telemetry.Attribution.cycles_untrusted);
  (* The folded export is non-empty and its line count matches the number
     of distinct stacks. *)
  let folded = Telemetry.Sampler.to_folded sampler in
  Alcotest.(check bool) "samples taken" true (Telemetry.Sampler.samples_total sampler > 100);
  Alcotest.(check bool) "folded non-empty" true (String.length folded > 0);
  Alcotest.(check int) "one folded line per stack"
    (List.length (Telemetry.Sampler.stacks sampler))
    (List.length (String.split_on_char '\n' (String.trim folded)));
  (* Per-compartment sample shares must agree with the flow matrix's
     per-compartment cycle totals: both charge a gate transition's cost to
     the compartment that was running when it began. *)
  let u_cycle_share =
    Util.Json.(
      to_float (member "cycle_share_untrusted" (member "flow_matrix" (Telemetry.Attribution.to_json a))))
  in
  let u_sample_share =
    match List.assoc_opt "untrusted" (Telemetry.Sampler.leaf_shares sampler) with
    | Some share -> share
    | None -> 0.0
  in
  Alcotest.(check bool)
    (Printf.sprintf "sampled U share %.3f within 0.05 of cycle U share %.3f" u_sample_share
       u_cycle_share)
    true
    (Float.abs (u_sample_share -. u_cycle_share) < 0.05)

(* The Prometheus exposition of a real run carries the attribution and
   profile families end to end. *)
let test_prometheus_end_to_end () =
  let profile =
    Workloads.Runner.profile_suite
      { Workloads.Bench_def.suite_name = "attribution"; benches = [ sampled_bench ] }
  in
  let m =
    Workloads.Runner.run_config ~telemetry:true ~sample_every:64 ~mode:Pkru_safe.Config.Mpk
      ~profile sampled_bench
  in
  let sink = Option.get m.Workloads.Runner.trace in
  let sampler = Option.get m.Workloads.Runner.samples in
  let attribution = Telemetry.Attribution.of_sink ~total_cycles:m.Workloads.Runner.cycles sink in
  let text = Telemetry.Export.prometheus ~attribution ~sampler sink in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("exposition contains " ^ needle) true (contains text needle))
    [
      "# TYPE pkru_telemetry_events_total counter";
      {|pkru_events_total{kind="gate_enter"}|};
      {|pkru_flow_crossings_total{direction="t_to_u"}|};
      {|pkru_compartment_cycles_total{compartment="untrusted"}|};
      {|pkru_profile_samples_total{stack=|};
      "# TYPE pkru_allocs_per_window gauge";
    ]

let suite =
  [
    Alcotest.test_case "site heat (synthetic trace)" `Quick test_site_heat_synthetic;
    Alcotest.test_case "flow matrix cycle accounting" `Quick test_flow_matrix_cycles;
    Alcotest.test_case "flow exit without enter" `Quick test_flow_exit_without_enter;
    Alcotest.test_case "attribution json round-trips" `Quick test_attribution_json_roundtrip;
    Alcotest.test_case "metrics cells" `Quick test_metrics_cells;
    Alcotest.test_case "metrics series windows" `Quick test_metrics_series_windows;
    Alcotest.test_case "metrics exposition format" `Quick test_metrics_expose_format;
    Alcotest.test_case "sampler credit accumulation" `Quick test_sampler_credit_accumulation;
    Alcotest.test_case "sampler restores on raise" `Quick test_sampler_restores_on_raise;
    Alcotest.test_case "registry lookup errors" `Quick test_registry_lookup_errors;
    Alcotest.test_case "sampled profile matches flow matrix" `Quick
      test_sampled_profile_matches_flow_matrix;
    Alcotest.test_case "prometheus end to end" `Quick test_prometheus_end_to_end;
  ]
