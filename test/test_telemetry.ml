(* Tests for the telemetry subsystem: event counts against the gate's own
   transition counter, ring-buffer eviction order, non-perturbation of
   measurements, and Chrome-trace round-tripping. *)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let small_bench =
  Workloads.Bench_def.bench ~page:(Workloads.Dom_scripts.page ~rows:4) "telemetry-bench"
    (Workloads.Dom_scripts.dom_attr ~iters:8)

let bench_profile () =
  Workloads.Runner.profile_suite
    { Workloads.Bench_def.suite_name = "telemetry"; benches = [ small_bench ] }

(* (1) Every gate side emits exactly one event, so the sink's gate-event
   count must equal the environment's transition counter — the invariant
   the Chrome exporter's slice count rests on. *)
let test_gate_events_match_transitions () =
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Mpk)) in
  let sink = Telemetry.Sink.create () in
  Telemetry.Ctx.with_sink (Pkru_safe.Env.ctx env) sink (fun () ->
      for _ = 1 to 17 do
        Pkru_safe.Env.ffi_call env (fun () ->
            ignore (Pkru_safe.Env.callback env (fun () -> ())))
      done);
  Alcotest.(check int) "transitions" (17 * 4) (Pkru_safe.Env.transitions env);
  Alcotest.(check int) "gate events = transitions" (Pkru_safe.Env.transitions env)
    (Telemetry.Sink.gate_transitions sink);
  Alcotest.(check int) "enter = exit" (Telemetry.Sink.count sink "gate_enter")
    (Telemetry.Sink.count sink "gate_exit");
  (* Each gate side executes one WRPKRU. *)
  Alcotest.(check int) "wrpkru events" (Pkru_safe.Env.transitions env)
    (Telemetry.Sink.count sink "wrpkru")

let test_gate_events_match_on_workload () =
  let m =
    Workloads.Runner.run_config ~telemetry:true ~mode:Pkru_safe.Config.Mpk
      ~profile:(bench_profile ()) small_bench
  in
  let sink = Option.get m.Workloads.Runner.trace in
  Alcotest.(check bool) "workload transitions nonzero" true (m.Workloads.Runner.transitions > 0);
  Alcotest.(check int) "gate events = measurement transitions" m.Workloads.Runner.transitions
    (Telemetry.Sink.gate_transitions sink)

(* (2) The ring drops oldest-first at capacity. *)
let test_ring_drops_oldest_first () =
  let ring = Telemetry.Ring.create ~capacity:4 in
  for i = 1 to 10 do
    Telemetry.Ring.push ring i
  done;
  Alcotest.(check (list int)) "keeps newest, oldest first" [ 7; 8; 9; 10 ]
    (Telemetry.Ring.to_list ring);
  Alcotest.(check int) "dropped count" 6 (Telemetry.Ring.dropped ring);
  Alcotest.(check int) "length capped" 4 (Telemetry.Ring.length ring)

let test_ring_partial_fill () =
  let ring = Telemetry.Ring.create ~capacity:8 in
  List.iter (Telemetry.Ring.push ring) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "oldest first before wrap" [ 1; 2; 3 ]
    (Telemetry.Ring.to_list ring);
  Alcotest.(check int) "nothing dropped" 0 (Telemetry.Ring.dropped ring)

let test_sink_ring_eviction () =
  let sink = Telemetry.Sink.create ~capacity:3 () in
  for i = 1 to 5 do
    Telemetry.Sink.emit sink ~ts:i ~cpu:0 (Telemetry.Event.Wrpkru { value = i })
  done;
  Alcotest.(check int) "events_total counts evicted" 5 (Telemetry.Sink.events_total sink);
  Alcotest.(check (list int)) "trace keeps newest" [ 3; 4; 5 ]
    (List.map (fun (r : Telemetry.Event.record) -> r.Telemetry.Event.ts)
       (Telemetry.Sink.events sink))

(* (3) Telemetry must not perturb measurements: a disabled-sink run equals
   the seed behaviour, and an enabled sink — or an enabled cycle sampler —
   charges no simulated cycles.  All measurement fields the paper's tables
   derive from must be bit-identical across all four runs. *)
let test_disabled_sink_identical_measurements () =
  let profile = bench_profile () in
  let strip (m : Workloads.Runner.measurement) =
    ( m.Workloads.Runner.cycles,
      m.Workloads.Runner.transitions,
      m.Workloads.Runner.pct_mu,
      m.Workloads.Runner.mt_bytes,
      m.Workloads.Runner.mu_bytes,
      m.Workloads.Runner.output )
  in
  let run ?sample_every telemetry =
    strip
      (Workloads.Runner.run_config ~telemetry ?sample_every ~mode:Pkru_safe.Config.Mpk ~profile
         small_bench)
  in
  let off1 = run false in
  let off2 = run false in
  let on = run true in
  let sampled = run ~sample_every:32 true in
  Alcotest.(check bool) "disabled runs identical" true (off1 = off2);
  Alcotest.(check bool) "enabled run does not perturb" true (off1 = on);
  Alcotest.(check bool) "sampled run does not perturb" true (off1 = sampled)

(* (4) The Chrome trace export must be valid JSON that round-trips through
   our own parser, with one slice record per gate transition plus one
   span slice per recorded causal span (on its own pid). *)
let test_chrome_trace_roundtrip () =
  let m =
    Workloads.Runner.run_config ~telemetry:true ~mode:Pkru_safe.Config.Mpk
      ~profile:(bench_profile ()) small_bench
  in
  let sink = Option.get m.Workloads.Runner.trace in
  let spans = Telemetry.Sink.spans sink in
  let span_count =
    List.length (Telemetry.Span.closed spans) + List.length (Telemetry.Span.open_spans spans)
  in
  let rendered = Util.Json.to_string_pretty (Telemetry.Export.chrome_trace sink) in
  let parsed = Util.Json.of_string rendered in
  let records = Util.Json.to_list (Util.Json.member "traceEvents" parsed) in
  Alcotest.(check int) "record count"
    (List.length (Telemetry.Sink.events sink) + span_count)
    (List.length records);
  let gate_records =
    List.filter
      (fun r -> Util.Json.to_str (Util.Json.member "cat" r) = "gate")
      records
  in
  Alcotest.(check int) "gate slice records = transitions" m.Workloads.Runner.transitions
    (List.length gate_records);
  (* B/E slices must balance for the viewer to nest them. *)
  let phase ph =
    List.length
      (List.filter (fun r -> Util.Json.to_str (Util.Json.member "ph" r) = ph) gate_records)
  in
  Alcotest.(check int) "balanced slices" (phase "B") (phase "E");
  (* Span slices: separate track (pid 1), all closed spans complete (X)
     with a dur, every record carrying its span id and parent. *)
  let span_records =
    List.filter
      (fun r ->
        let cat = Util.Json.to_str (Util.Json.member "cat" r) in
        String.length cat >= 5 && String.sub cat 0 5 = "span:")
      records
  in
  Alcotest.(check int) "span slice records = spans" span_count (List.length span_records);
  List.iter
    (fun r ->
      Alcotest.(check int) "span pid" 1 (Util.Json.to_int (Util.Json.member "pid" r));
      if Util.Json.to_str (Util.Json.member "ph" r) = "X" then
        Alcotest.(check bool) "X slice has dur" true
          (Util.Json.to_int (Util.Json.member "dur" r) >= 0))
    span_records;
  (* Span nesting survives the round-trip: rebuild the (id -> parent) map
     from the re-parsed args and compare against the live store. *)
  let parsed_parents =
    List.map
      (fun r ->
        let args = Util.Json.member "args" r in
        (Util.Json.to_int (Util.Json.member "id" args),
         Util.Json.to_int (Util.Json.member "parent" args)))
      span_records
    |> List.sort compare
  in
  let live_parents =
    List.map
      (fun (r : Telemetry.Span.record) -> (r.Telemetry.Span.id, r.Telemetry.Span.parent))
      (Telemetry.Span.closed spans @ Telemetry.Span.open_spans spans)
    |> List.sort compare
  in
  Alcotest.(check bool) "span nesting round-trips" true (parsed_parents = live_parents)

let test_summary_json_roundtrip () =
  let m =
    Workloads.Runner.run_config ~telemetry:true ~mode:Pkru_safe.Config.Mpk
      ~profile:(bench_profile ()) small_bench
  in
  let sink = Option.get m.Workloads.Runner.trace in
  let parsed = Util.Json.of_string (Util.Json.to_string (Telemetry.Export.summary_json sink)) in
  Alcotest.(check int) "gate_transitions field" (Telemetry.Sink.gate_transitions sink)
    (Util.Json.to_int (Util.Json.member "gate_transitions" parsed))

let test_histogram_buckets_and_percentiles () =
  let h = Telemetry.Histogram.create () in
  List.iter (Telemetry.Histogram.observe h) [ 0; 1; 2; 3; 4; 8; 100; 1000 ];
  Alcotest.(check int) "count" 8 (Telemetry.Histogram.count h);
  Alcotest.(check int) "min" 0 (Telemetry.Histogram.min_value h);
  Alcotest.(check int) "max" 1000 (Telemetry.Histogram.max_value h);
  Alcotest.(check int) "bucket of 0" 0 (Telemetry.Histogram.bucket_of 0);
  Alcotest.(check int) "bucket of 1" 0 (Telemetry.Histogram.bucket_of 1);
  Alcotest.(check int) "bucket of 2" 1 (Telemetry.Histogram.bucket_of 2);
  Alcotest.(check int) "bucket of 1000" 9 (Telemetry.Histogram.bucket_of 1000);
  Alcotest.(check bool) "p50 within range" true
    (let p = Telemetry.Histogram.percentile h 50.0 in
     p >= 0.0 && p <= 1000.0);
  Alcotest.(check (float 1e-9)) "p100 is max" 1000.0 (Telemetry.Histogram.percentile h 100.0)

(* An empty histogram has no percentiles: like Util.Stats.percentile, the
   query raises rather than inventing a 0. *)
let test_empty_histogram_percentile_raises () =
  let h = Telemetry.Histogram.create () in
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Histogram.percentile: empty histogram") (fun () ->
      ignore (Telemetry.Histogram.percentile h 50.0));
  Telemetry.Histogram.observe h 7;
  Alcotest.(check (float 1e-9)) "defined once non-empty" 7.0
    (Telemetry.Histogram.percentile h 50.0)

let test_with_sink_restores () =
  let ctx = Telemetry.Ctx.create () in
  Alcotest.(check bool) "empty by default" true (ctx.Telemetry.Ctx.sink = None);
  let sink = Telemetry.Sink.create () in
  (try Telemetry.Ctx.with_sink ctx sink (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" true (ctx.Telemetry.Ctx.sink = None)

(* (5) Causal spans: parenting, exit-by-id unwind coherence, digesting. *)
(* The open spans on one hart, root first: a span opens after its parent,
   so ids grow along the chain. *)
let open_chain spans ~cpu =
  List.filter
    (fun (r : Telemetry.Span.record) -> r.Telemetry.Span.cpu = cpu)
    (Telemetry.Span.open_spans spans)

let test_span_nesting () =
  let spans = Telemetry.Span.create () in
  let a = Telemetry.Span.enter spans ~ts:10 ~cpu:0 ~kind:Telemetry.Span.Phase "outer" in
  let b = Telemetry.Span.enter spans ~ts:20 ~cpu:0 ~kind:Telemetry.Span.Gate "inner" in
  let i = Telemetry.Span.instant spans ~ts:25 ~cpu:0 ~kind:Telemetry.Span.Incident "blip" in
  (* A different hart opens its own root — stacks are per-cpu. *)
  let other = Telemetry.Span.enter spans ~ts:21 ~cpu:1 ~kind:Telemetry.Span.Chaos "elsewhere" in
  let by_id id =
    List.find
      (fun (r : Telemetry.Span.record) -> r.Telemetry.Span.id = id)
      (Telemetry.Span.closed spans @ Telemetry.Span.open_spans spans)
  in
  Alcotest.(check int) "root has no parent" 0 (by_id a).Telemetry.Span.parent;
  Alcotest.(check int) "inner parented under outer" a (by_id b).Telemetry.Span.parent;
  Alcotest.(check int) "instant parented under innermost" b (by_id i).Telemetry.Span.parent;
  Alcotest.(check int) "other hart is a root" 0 (by_id other).Telemetry.Span.parent;
  Alcotest.(check (list int)) "open chain root first" [ a; b ]
    (List.map
       (fun (r : Telemetry.Span.record) -> r.Telemetry.Span.id)
       (open_chain spans ~cpu:0));
  (* Closing the OUTER span by id closes the abandoned inner span at the
     same timestamp — the exception-unwind case. *)
  Telemetry.Span.exit spans ~ts:40 ~cpu:0 ~id:a ();
  Alcotest.(check (list int)) "cpu0 stack empty" []
    (List.map
       (fun (r : Telemetry.Span.record) -> r.Telemetry.Span.id)
       (open_chain spans ~cpu:0));
  Alcotest.(check int) "abandoned inner closed at unwind ts" 40 (by_id b).Telemetry.Span.t_end;
  Alcotest.(check int) "outer duration" 30 (Telemetry.Span.duration (by_id a));
  Alcotest.(check bool) "other hart still open" true (Telemetry.Span.is_open (by_id other));
  Alcotest.(check int) "opened_total" 4 (Telemetry.Span.opened_total spans);
  (* Digest is valid JSON carrying the accounting. *)
  let digest = Util.Json.of_string (Util.Json.to_string (Telemetry.Span.digest_json spans)) in
  Alcotest.(check int) "digest opened_total" 4
    (Util.Json.to_int (Util.Json.member "opened_total" digest));
  Alcotest.(check int) "digest open_now" 1
    (Util.Json.to_int (Util.Json.member "open_now" digest))

let test_span_exit_without_enter_is_noop () =
  let spans = Telemetry.Span.create () in
  Telemetry.Span.exit spans ~ts:5 ~cpu:0 ();
  Telemetry.Span.exit spans ~ts:5 ~cpu:0 ~id:42 ();
  Alcotest.(check int) "nothing closed" 0 (List.length (Telemetry.Span.closed spans));
  Alcotest.(check int) "nothing opened" 0 (Telemetry.Span.opened_total spans)

(* (6) Spans disabled must be invisible: same simulated cycles and the
   exact same event trace as a span-recording run. *)
let test_spans_disabled_bit_identical () =
  let profile = bench_profile () in
  let run record_spans =
    let env =
      ok (Pkru_safe.Env.create ~profile (Pkru_safe.Config.make Pkru_safe.Config.Mpk))
    in
    let sink = Telemetry.Sink.create ~record_spans () in
    let browser =
      Browser.create ~engine_seed:small_bench.Workloads.Bench_def.engine_seed env
    in
    Telemetry.Ctx.with_sink (Pkru_safe.Env.ctx env) sink (fun () ->
        Browser.load_page browser small_bench.Workloads.Bench_def.page;
        ignore (Browser.exec_script browser small_bench.Workloads.Bench_def.script));
    (Pkru_safe.Env.cycles env, Telemetry.Sink.events sink, Telemetry.Sink.counters sink, sink)
  in
  let cycles_on, events_on, counters_on, sink_on = run true in
  let cycles_off, events_off, counters_off, sink_off = run false in
  Alcotest.(check bool) "spans were recorded when enabled" true
    (Telemetry.Span.opened_total (Telemetry.Sink.spans sink_on) > 0);
  Alcotest.(check int) "no spans recorded when disabled" 0
    (Telemetry.Span.opened_total (Telemetry.Sink.spans sink_off));
  Alcotest.(check int) "cycles bit-identical" cycles_on cycles_off;
  Alcotest.(check bool) "event traces bit-identical" true (events_on = events_off);
  Alcotest.(check bool) "counters bit-identical" true (counters_on = counters_off)

(* (7) The trace.dropped satellite: ring eviction is a visible counter. *)
let test_trace_dropped_counter () =
  let sink = Telemetry.Sink.create ~capacity:3 () in
  Alcotest.(check int) "zero before overflow" 0 (Telemetry.Sink.count sink "trace.dropped");
  for i = 1 to 5 do
    Telemetry.Sink.emit sink ~ts:i ~cpu:0 (Telemetry.Event.Wrpkru { value = i })
  done;
  Alcotest.(check int) "counter equals ring dropped" (Telemetry.Sink.dropped sink)
    (Telemetry.Sink.count sink "trace.dropped");
  Alcotest.(check int) "two evictions" 2 (Telemetry.Sink.count sink "trace.dropped")

(* (8) The gate tail keeps only gate transitions, newest-N. *)
let test_gate_tail () =
  let sink = Telemetry.Sink.create ~gate_tail:4 () in
  for i = 1 to 6 do
    Telemetry.Sink.emit sink ~ts:i ~cpu:0
      (Telemetry.Event.Gate_enter { target = Telemetry.Event.Untrusted });
    Telemetry.Sink.emit sink ~ts:(100 + i) ~cpu:0 (Telemetry.Event.Wrpkru { value = i })
  done;
  let tail = Telemetry.Sink.gate_tail sink in
  Alcotest.(check int) "bounded" 4 (List.length tail);
  Alcotest.(check (list int)) "newest gate transitions, oldest first" [ 3; 4; 5; 6 ]
    (List.map (fun (r : Telemetry.Event.record) -> r.Telemetry.Event.ts) tail)

(* (9) Full JSON export round-trips through our parser, span records
   included, and Span.record_of_json inverts record_to_json. *)
let test_json_export_roundtrip () =
  let m =
    Workloads.Runner.run_config ~telemetry:true ~mode:Pkru_safe.Config.Mpk
      ~profile:(bench_profile ()) small_bench
  in
  let sink = Option.get m.Workloads.Runner.trace in
  let spans = Telemetry.Sink.spans sink in
  let parsed = Util.Json.of_string (Util.Json.to_string (Telemetry.Export.to_json sink)) in
  Alcotest.(check int) "events round-trip" (List.length (Telemetry.Sink.events sink))
    (List.length (Util.Json.to_list (Util.Json.member "events" parsed)));
  let parsed_spans = Util.Json.member "spans" parsed in
  let closed = Util.Json.to_list (Util.Json.member "closed" parsed_spans) in
  Alcotest.(check int) "closed spans round-trip" (List.length (Telemetry.Span.closed spans))
    (List.length closed);
  (* Each record parses back to exactly the source record. *)
  List.iter2
    (fun json (r : Telemetry.Span.record) ->
      let back = Telemetry.Span.record_of_json json in
      Alcotest.(check bool) "span record round-trips" true
        (back.Telemetry.Span.id = r.Telemetry.Span.id
        && back.Telemetry.Span.parent = r.Telemetry.Span.parent
        && back.Telemetry.Span.name = r.Telemetry.Span.name
        && back.Telemetry.Span.kind = r.Telemetry.Span.kind
        && back.Telemetry.Span.t_begin = r.Telemetry.Span.t_begin
        && back.Telemetry.Span.t_end = r.Telemetry.Span.t_end))
    closed (Telemetry.Span.closed spans);
  (* Gate spans must nest under the workload's phase spans: every
     gate-kind span has a non-root parent chain ending at a phase. *)
  let all = Telemetry.Span.closed spans @ Telemetry.Span.open_spans spans in
  let by_id id =
    List.find_opt (fun (r : Telemetry.Span.record) -> r.Telemetry.Span.id = id) all
  in
  let rec root (r : Telemetry.Span.record) =
    match by_id r.Telemetry.Span.parent with None -> r | Some p -> root p
  in
  let gate_spans =
    List.filter (fun (r : Telemetry.Span.record) -> r.Telemetry.Span.kind = Telemetry.Span.Gate) all
  in
  Alcotest.(check bool) "workload recorded gate spans" true (gate_spans <> []);
  List.iter
    (fun (g : Telemetry.Span.record) ->
      Alcotest.(check bool) "gate span roots at a phase" true
        ((root g).Telemetry.Span.kind = Telemetry.Span.Phase))
    gate_spans

(* (10) Prometheus exposition hardening: label-value escaping, label-name
   validation, and the spec spellings of non-finite values. *)
let test_prometheus_label_escaping () =
  let reg = Telemetry.Metrics.create () in
  Telemetry.Metrics.incr
    (Telemetry.Metrics.counter reg
       ~labels:[ ("site", "a\\b\"c\nd") ]
       "pkru_escape_test_total");
  let text = Telemetry.Metrics.expose reg in
  let expected = {|site="a\\b\"c\nd"|} in
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "label value escaped per 0.0.4" true (contains text expected);
  Alcotest.(check bool) "no raw newline inside a sample line" true
    (List.for_all
       (fun line ->
         (* every non-empty line is a complete sample or comment *)
         line = "" || String.length line > 0)
       (String.split_on_char '\n' text));
  (* Help text escapes newlines too. *)
  let reg2 = Telemetry.Metrics.create () in
  ignore (Telemetry.Metrics.counter reg2 ~help:"line1\nline2" "pkru_help_test_total");
  Alcotest.(check bool) "help newline escaped" true
    (contains (Telemetry.Metrics.expose reg2) {|# HELP pkru_help_test_total line1\nline2|})

let test_prometheus_label_name_validation () =
  let reg = Telemetry.Metrics.create () in
  Alcotest.check_raises "invalid label name"
    (Invalid_argument "Metrics: invalid label name \"bad-name\"") (fun () ->
      ignore (Telemetry.Metrics.counter reg ~labels:[ ("bad-name", "v") ] "pkru_bad_total"));
  Alcotest.check_raises "reserved __ label name"
    (Invalid_argument "Metrics: invalid label name \"__reserved\"") (fun () ->
      ignore (Telemetry.Metrics.counter reg ~labels:[ ("__reserved", "v") ] "pkru_bad_total"))

let test_prometheus_nonfinite_rendering () =
  let reg = Telemetry.Metrics.create () in
  Telemetry.Metrics.set (Telemetry.Metrics.gauge reg "pkru_nan_gauge") Float.nan;
  Telemetry.Metrics.set (Telemetry.Metrics.gauge reg "pkru_posinf_gauge") Float.infinity;
  Telemetry.Metrics.set (Telemetry.Metrics.gauge reg "pkru_neginf_gauge") Float.neg_infinity;
  let lines = String.split_on_char '\n' (Telemetry.Metrics.expose reg) in
  let has line = List.mem line lines in
  Alcotest.(check bool) "NaN" true (has "pkru_nan_gauge NaN");
  Alcotest.(check bool) "+Inf" true (has "pkru_posinf_gauge +Inf");
  Alcotest.(check bool) "-Inf" true (has "pkru_neginf_gauge -Inf")

(* (11) The flight recorder: dump capture and the doctor rendering. *)
let test_flight_dump_and_render () =
  let sink = Telemetry.Sink.create () in
  let recorder = Telemetry.Flight.create () in
  Telemetry.Flight.attach_sink recorder sink;
  Telemetry.Flight.set_context recorder (fun () ->
      Util.Json.Obj
        [
          ("cycles", Util.Json.Int 777);
          ( "cpus",
            Util.Json.List
              [ Util.Json.Obj [ ("id", Util.Json.Int 0); ("pkru", Util.Json.Int 12) ] ] );
          ("gate_depth", Util.Json.Int 1);
        ]);
  Telemetry.Sink.emit sink ~ts:1 ~cpu:0
    (Telemetry.Event.Gate_enter { target = Telemetry.Event.Untrusted });
  ignore (Telemetry.Sink.span_enter sink ~ts:1 ~cpu:0 ~kind:Telemetry.Span.Gate "gate:untrusted");
  let ctx = Telemetry.Ctx.create () in
  Telemetry.Ctx.with_recorder ctx recorder (fun () ->
      Telemetry.Ctx.dump ctx ~reason:"test incident"
        ~details:[ ("note", Util.Json.String "injected") ]
        ());
  Alcotest.(check int) "one dump" 1 (Telemetry.Flight.dump_total recorder);
  let dump = Option.get (Telemetry.Flight.last recorder) in
  (* Self-contained: survives serialise/parse, then renders. *)
  let dump = Util.Json.of_string (Util.Json.to_string dump) in
  Alcotest.(check string) "schema" "pkru-safe.flight/1"
    (Util.Json.to_str (Util.Json.member "schema" dump));
  let report = Telemetry.Flight.render dump in
  let contains needle =
    let nl = String.length needle and hl = String.length report in
    let rec go i = i + nl <= hl && (String.sub report i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "reason rendered" true (contains "test incident");
  Alcotest.(check bool) "pkru rendered" true (contains "cpu0 PKRU = 0x0000000c");
  Alcotest.(check bool) "gate imbalance rendered" true (contains "IMBALANCED");
  Alcotest.(check bool) "open span chain rendered" true (contains "gate:untrusted");
  (* Dumps without an attached recorder are no-ops. *)
  Telemetry.Ctx.dump ctx ~reason:"nobody listening" ();
  Alcotest.(check int) "still one dump" 1 (Telemetry.Flight.dump_total recorder)

let suite =
  [
    Alcotest.test_case "gate events match transitions" `Quick test_gate_events_match_transitions;
    Alcotest.test_case "gate events match on workload" `Quick test_gate_events_match_on_workload;
    Alcotest.test_case "ring drops oldest first" `Quick test_ring_drops_oldest_first;
    Alcotest.test_case "ring partial fill" `Quick test_ring_partial_fill;
    Alcotest.test_case "sink ring eviction" `Quick test_sink_ring_eviction;
    Alcotest.test_case "disabled sink identical measurements" `Quick
      test_disabled_sink_identical_measurements;
    Alcotest.test_case "chrome trace round-trips" `Quick test_chrome_trace_roundtrip;
    Alcotest.test_case "summary json round-trips" `Quick test_summary_json_roundtrip;
    Alcotest.test_case "histogram buckets/percentiles" `Quick
      test_histogram_buckets_and_percentiles;
    Alcotest.test_case "empty histogram percentile raises" `Quick
      test_empty_histogram_percentile_raises;
    Alcotest.test_case "with_sink restores on raise" `Quick test_with_sink_restores;
    Alcotest.test_case "span nesting and unwind" `Quick test_span_nesting;
    Alcotest.test_case "span exit without enter is no-op" `Quick
      test_span_exit_without_enter_is_noop;
    Alcotest.test_case "spans disabled bit-identical" `Quick test_spans_disabled_bit_identical;
    Alcotest.test_case "trace.dropped counter" `Quick test_trace_dropped_counter;
    Alcotest.test_case "gate tail ring" `Quick test_gate_tail;
    Alcotest.test_case "json export round-trips spans" `Quick test_json_export_roundtrip;
    Alcotest.test_case "prometheus label escaping" `Quick test_prometheus_label_escaping;
    Alcotest.test_case "prometheus label name validation" `Quick
      test_prometheus_label_name_validation;
    Alcotest.test_case "prometheus non-finite rendering" `Quick
      test_prometheus_nonfinite_rendering;
    Alcotest.test_case "flight dump and doctor render" `Quick test_flight_dump_and_render;
  ]
