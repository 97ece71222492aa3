(* Exporters over a sink snapshot: compact JSON, Chrome trace_event JSON
   (chrome://tracing / Perfetto), an ASCII summary table, and a
   Prometheus-style exposition built through the metrics registry. *)

let counters_json sink =
  Util.Json.Obj (List.map (fun (name, n) -> (name, Util.Json.Int n)) (Sink.counters sink))

let histograms_json sink =
  Util.Json.Obj (List.map (fun (name, h) -> (name, Histogram.to_json h)) (Sink.histograms sink))

let spans_json sink =
  let spans = Sink.spans sink in
  Util.Json.Obj
    [
      ("digest", Span.digest_json spans);
      ("closed", Util.Json.List (List.map Span.record_to_json (Span.closed spans)));
      ("open", Util.Json.List (List.map Span.record_to_json (Span.open_spans spans)));
    ]

let to_json sink =
  let open Util.Json in
  Obj
    [
      ("events_total", Int (Sink.events_total sink));
      ("events_dropped", Int (Sink.dropped sink));
      ("gate_transitions", Int (Sink.gate_transitions sink));
      ("counters", counters_json sink);
      ("histograms", histograms_json sink);
      ("events", List (List.map Event.record_to_json (Sink.events sink)));
      ("spans", spans_json sink);
    ]

(* Chrome trace_event format: gates become nested duration slices (ph B/E —
   gate sides nest by construction of the compartment stack), everything
   else an instant event.  "ts" is in simulated cycles; the unit only
   matters for the viewer's axis labels. *)
let chrome_record (r : Event.record) =
  let open Util.Json in
  let common name cat ph extra =
    Obj
      ([
         ("name", String name);
         ("cat", String cat);
         ("ph", String ph);
         ("ts", Int r.Event.ts);
         ("pid", Int 0);
         ("tid", Int r.Event.cpu);
       ]
      @ extra)
  in
  let args = [ ("args", Obj (Event.args_json r.Event.event)) ] in
  match r.Event.event with
  | Event.Gate_enter { target } ->
    common ("gate:" ^ Event.compartment_to_string target) "gate" "B" args
  | Event.Gate_exit _ -> common "gate" "gate" "E" []
  | event ->
    common (Event.kind event) (Event.kind event) "i" ([ ("s", String "t") ] @ args)

(* Spans export as Chrome "complete" slices (ph X with an explicit dur)
   on a dedicated pid so the causal-span track sits alongside — not
   interleaved with — the raw gate B/E track on pid 0.  Spans still open
   at snapshot time become dangling B slices, which the viewer renders
   as running to the end of the trace: exactly the "open at death"
   reading the flight recorder wants. *)
let chrome_span (r : Span.record) =
  let open Util.Json in
  let common ph extra =
    Obj
      ([
         ("name", String r.Span.name);
         ("cat", String ("span:" ^ Span.kind_to_string r.Span.kind));
         ("ph", String ph);
         ("ts", Int r.Span.t_begin);
         ("pid", Int 1);
         ("tid", Int r.Span.cpu);
         ( "args",
           Obj [ ("id", Int r.Span.id); ("parent", Int r.Span.parent) ] );
       ]
      @ extra)
  in
  if Span.is_open r then common "B" []
  else common "X" [ ("dur", Int (Span.duration r)) ]

let chrome_trace sink =
  let open Util.Json in
  let spans = Sink.spans sink in
  let span_records =
    List.sort
      (fun (a : Span.record) b -> compare (a.Span.t_begin, a.Span.id) (b.Span.t_begin, b.Span.id))
      (Span.closed spans @ Span.open_spans spans)
  in
  Obj
    [
      ( "traceEvents",
        List (List.map chrome_record (Sink.events sink) @ List.map chrome_span span_records) );
      ("displayTimeUnit", String "ns");
      ( "otherData",
        Obj
          [
            ("gate_transitions", Int (Sink.gate_transitions sink));
            ("events_total", Int (Sink.events_total sink));
            ("events_dropped", Int (Sink.dropped sink));
          ] );
    ]

(* Gate round-trip latencies recovered from the trace: per-hart stacks of
   Gate_enter timestamps, popped by the matching Gate_exit.  These are the
   exact samples (within ring capacity), so the summary reports true
   percentiles via Util.Stats.percentile rather than the histogram's
   bucket-resolution approximation. *)
let gate_latencies sink =
  let stacks : (int, int list ref) Hashtbl.t = Hashtbl.create 4 in
  let stack cpu =
    match Hashtbl.find_opt stacks cpu with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks cpu s;
      s
  in
  let out = ref [] in
  List.iter
    (fun (r : Event.record) ->
      match r.Event.event with
      | Event.Gate_enter _ ->
        let s = stack r.Event.cpu in
        s := r.Event.ts :: !s
      | Event.Gate_exit _ ->
        let s = stack r.Event.cpu in
        (match !s with
        | entered :: rest ->
          s := rest;
          out := float_of_int (r.Event.ts - entered) :: !out
        | [] -> () (* the matching enter was dropped by the ring *))
      | _ -> ())
    (Sink.events sink);
  List.rev !out

(* Everything except the raw trace: what a results directory wants to keep
   per run without storing millions of event records. *)
let summary_json ?census sink =
  let open Util.Json in
  let gate_percentiles =
    match gate_latencies sink with
    | [] -> Null
    | latencies ->
      Obj
        [
          ("pairs", Int (List.length latencies));
          ("p50", Float (Util.Stats.percentile 50.0 latencies));
          ("p90", Float (Util.Stats.percentile 90.0 latencies));
          ("p99", Float (Util.Stats.percentile 99.0 latencies));
        ]
  in
  Obj
    [
      ("events_total", Int (Sink.events_total sink));
      ("events_dropped", Int (Sink.dropped sink));
      ("gate_transitions", Int (Sink.gate_transitions sink));
      ("gate_roundtrip_cycles_exact", gate_percentiles);
      ("counters", counters_json sink);
      ("histograms", histograms_json sink);
      ("spans", Span.digest_json (Sink.spans sink));
      ("census", (match census with None -> Null | Some c -> Census.digest_json c));
    ]

let summary sink =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "events: %d total, %d in trace, %d dropped; gate transitions: %d\n\n"
       (Sink.events_total sink)
       (List.length (Sink.events sink))
       (Sink.dropped sink) (Sink.gate_transitions sink));
  let counters = Sink.counters sink in
  if counters <> [] then begin
    Buffer.add_string buf
      (Util.Table.render ~header:[ "counter"; "count" ]
         (List.map (fun (name, n) -> [ name; string_of_int n ]) counters));
    Buffer.add_char buf '\n'
  end;
  let histograms = Sink.histograms sink in
  if histograms <> [] then begin
    Buffer.add_string buf
      (Util.Table.render
         ~header:[ "histogram"; "count"; "min"; "mean"; "p50"; "p90"; "p99"; "max" ]
         (List.map
            (fun (name, h) ->
              [
                name;
                string_of_int (Histogram.count h);
                string_of_int (Histogram.min_value h);
                Printf.sprintf "%.1f" (Histogram.mean h);
                Printf.sprintf "%.0f" (Histogram.percentile h 50.0);
                Printf.sprintf "%.0f" (Histogram.percentile h 90.0);
                Printf.sprintf "%.0f" (Histogram.percentile h 99.0);
                string_of_int (Histogram.max_value h);
              ])
            histograms));
    Buffer.add_char buf '\n'
  end;
  (match gate_latencies sink with
  | [] -> ()
  | latencies ->
    Buffer.add_string buf
      (Printf.sprintf
         "gate round-trip from trace (%d pairs): p50 %.0f  p90 %.0f  p99 %.0f cycles\n"
         (List.length latencies)
         (Util.Stats.percentile 50.0 latencies)
         (Util.Stats.percentile 90.0 latencies)
         (Util.Stats.percentile 99.0 latencies)));
  let spans = Sink.spans sink in
  if Span.opened_total spans > 0 then begin
    Buffer.add_string buf
      (Printf.sprintf "\nspans: %d opened, %d closed in ring, %d dropped, %d still open\n"
         (Span.opened_total spans)
         (List.length (Span.closed spans))
         (Span.dropped spans)
         (List.length (Span.open_spans spans)));
    let agg = Hashtbl.create 16 in
    List.iter
      (fun (r : Span.record) ->
        let key = (r.Span.name, Span.kind_to_string r.Span.kind) in
        let count, total, worst =
          match Hashtbl.find_opt agg key with
          | Some cell -> cell
          | None ->
            let cell = (ref 0, ref 0, ref 0) in
            Hashtbl.add agg key cell;
            cell
        in
        Stdlib.incr count;
        total := !total + Span.duration r;
        worst := max !worst (Span.duration r))
      (Span.closed spans);
    let rows =
      Hashtbl.fold
        (fun (name, kind) (count, total, worst) acc ->
          [ name; kind; string_of_int !count; string_of_int !total; string_of_int !worst ]
          :: acc)
        agg []
      |> List.sort compare
    in
    if rows <> [] then
      Buffer.add_string buf
        (Util.Table.render ~header:[ "span"; "kind"; "count"; "total cyc"; "max cyc" ] rows)
  end;
  Buffer.contents buf

(* --- Prometheus exposition via the metrics registry --- *)

(* Windowed series from the trace: per-window gate crossings and
   allocation counts, so a bench run plots as a trajectory.  The window
   is 1/50th of the covered cycle range (min 1000 cycles). *)
let series_window events =
  match List.rev events with
  | [] -> 1000
  | (last : Event.record) :: _ -> max 1000 (last.Event.ts / 50)

(* Folds a sink snapshot (plus optional attribution and sampler digests)
   into a metrics registry.  Event-kind counters become
   pkru_events_<kind>_total, sink histograms are attached under their own
   names, attribution becomes labelled site/flow gauges, and the sampler
   becomes per-stack sample counters. *)
let to_metrics ?attribution ?sampler ?census sink =
  let reg = Metrics.create () in
  (* Software-TLB effectiveness: dedicated families, always exposed (a
     zero hit count on a TLB-off run is itself the datum), from the
     counters the runner injects into the sink after a timed run. *)
  Metrics.incr ~by:(Sink.count sink "tlb_hit")
    (Metrics.counter reg ~help:"Software-TLB hits on the checked access path"
       "pkru_tlb_hits_total");
  Metrics.incr ~by:(Sink.count sink "tlb_miss")
    (Metrics.counter reg ~help:"Software-TLB misses (slow resolve path taken)"
       "pkru_tlb_misses_total");
  Metrics.incr ~by:(Sink.count sink "tlb_flush")
    (Metrics.counter reg ~help:"Software-TLB invalidation generations observed"
       "pkru_tlb_flushes_total");
  (* DOM selector-cache effectiveness: like the TLB families, always
     exposed.  Values come from the counters the runner injects post-run
     (never from the execution path, so traces stay bit-identical). *)
  let engine_counter sink_name family help =
    Metrics.incr ~by:(Sink.count sink sink_name) (Metrics.counter reg ~help family)
  in
  engine_counter "engine_selector_hit" "pkru_engine_selector_hits_total"
    "DOM selector-cache hits";
  engine_counter "engine_selector_miss" "pkru_engine_selector_misses_total"
    "DOM selector-cache misses (DOM mutated since fill)";
  (* Fault-recovery incidents: sink counters named
     mitigation.<policy>.<outcome> become labelled cells of one family.
     The unlabelled cell carries the total and is always exposed — a zero
     on an enforcement run says the mitigator had nothing to do. *)
  let mitigation_cells =
    List.filter_map
      (fun (name, n) ->
        match String.split_on_char '.' name with
        | [ "mitigation"; policy; outcome ] -> Some (policy, outcome, n)
        | _ -> None)
      (Sink.counters sink)
  in
  let mitigation_help = "Enforcement-mode MPK-fault incidents adjudicated by the mitigator" in
  Metrics.incr
    ~by:(List.fold_left (fun acc (_, _, n) -> acc + n) 0 mitigation_cells)
    (Metrics.counter reg ~help:mitigation_help "pkru_mitigation_total");
  List.iter
    (fun (policy, outcome, n) ->
      Metrics.incr ~by:n
        (Metrics.counter reg ~help:mitigation_help
           ~labels:[ ("policy", policy); ("outcome", outcome) ]
           "pkru_mitigation_total"))
    mitigation_cells;
  Metrics.incr
    ~by:(Sink.events_total sink)
    (Metrics.counter reg ~help:"Telemetry events emitted" "pkru_telemetry_events_total");
  Metrics.incr
    ~by:(Sink.dropped sink)
    (Metrics.counter reg ~help:"Events evicted from the trace ring"
       "pkru_telemetry_events_dropped_total");
  List.iter
    (fun (name, n) ->
      Metrics.incr ~by:n
        (Metrics.counter reg ~help:"Events by kind" ~labels:[ ("kind", name) ]
           "pkru_events_total"))
    (Sink.counters sink);
  List.iter
    (fun (name, h) ->
      Metrics.attach_histogram reg ~help:"Sink histogram (log2 buckets)" ("pkru_" ^ name) h)
    (Sink.histograms sink);
  (* Trajectories: gate crossings and allocations per cycle window. *)
  let events = Sink.events sink in
  let window = series_window events in
  let crossings =
    Metrics.series reg ~help:"Gate crossings per cycle window" ~window
      "pkru_gate_crossings_per_window"
  in
  let allocs =
    Metrics.series reg ~help:"Allocations per cycle window" ~window "pkru_allocs_per_window"
  in
  List.iter
    (fun (r : Event.record) ->
      match r.Event.event with
      | Event.Gate_enter _ | Event.Gate_exit _ ->
        Metrics.observe_series crossings ~cycle:(max 0 r.Event.ts) 1.0
      | Event.Alloc _ -> Metrics.observe_series allocs ~cycle:(max 0 r.Event.ts) 1.0
      | _ -> ())
    events;
  (match attribution with
  | None -> ()
  | Some attr ->
    let flow = Attribution.flow attr in
    let crossing direction n =
      Metrics.incr ~by:n
        (Metrics.counter reg ~help:"Gate crossings by direction"
           ~labels:[ ("direction", direction) ] "pkru_flow_crossings_total")
    in
    crossing "t_to_u" flow.Attribution.t_to_u;
    crossing "u_to_t" flow.Attribution.u_to_t;
    let comp_cycles name n =
      Metrics.incr ~by:n
        (Metrics.counter reg ~help:"Cycles attributed per compartment"
           ~labels:[ ("compartment", name) ] "pkru_compartment_cycles_total")
    in
    comp_cycles "trusted" flow.Attribution.cycles_trusted;
    comp_cycles "untrusted" flow.Attribution.cycles_untrusted;
    Metrics.set
      (Metrics.gauge reg ~help:"Deepest gate nesting in the trace" "pkru_gate_nesting_max")
      (float_of_int flow.Attribution.max_nesting);
    List.iter
      (fun (s : Attribution.site) ->
        let labels = [ ("site", s.Attribution.site); ("pool", Attribution.pool_of_site s) ] in
        Metrics.incr ~by:s.Attribution.allocs
          (Metrics.counter reg ~help:"Allocations per site" ~labels "pkru_site_allocs_total");
        Metrics.incr ~by:s.Attribution.bytes_allocated
          (Metrics.counter reg ~help:"Bytes allocated per site" ~labels
             "pkru_site_bytes_allocated_total");
        Metrics.set
          (Metrics.gauge reg ~help:"Live bytes per site at end of trace" ~labels
             "pkru_site_live_bytes")
          (float_of_int s.Attribution.live_bytes);
        if s.Attribution.mpk_faults > 0 then
          Metrics.incr ~by:s.Attribution.mpk_faults
            (Metrics.counter reg ~help:"MPK faults landing in the site's allocations" ~labels
               "pkru_site_mpk_faults_total"))
      (Attribution.sites attr));
  (match sampler with
  | None -> ()
  | Some s ->
    List.iter
      (fun (stack, n) ->
        Metrics.incr ~by:n
          (Metrics.counter reg ~help:"Cycle samples per compartment stack"
             ~labels:[ ("stack", stack) ] "pkru_profile_samples_total"))
      (Sampler.stacks s));
  (* Heap census: per-pool pkru_census_* / pkru_pool_* gauges and the
     per-site live view, all from the latest snapshot, plus the running
     snapshot count and the object-age histogram. *)
  (match census with
  | None -> ()
  | Some c -> (
    Metrics.incr ~by:(Census.taken_total c)
      (Metrics.counter reg ~help:"Heap-census snapshots taken" "pkru_census_snapshots_total");
    match Census.latest c with
    | None -> ()
    | Some snap ->
      Metrics.set
        (Metrics.gauge reg ~help:"Cycle of the latest census snapshot" "pkru_census_at_cycle")
        (float_of_int snap.Census.at_cycle);
      List.iter
        (fun (p : Census.pool_stats) ->
          let labels = [ ("pool", p.Census.cp_pool) ] in
          Metrics.set
            (Metrics.gauge reg ~help:"Live bytes per pool at the latest census" ~labels
               "pkru_census_live_bytes")
            (float_of_int p.Census.cp_live_bytes);
          Metrics.set
            (Metrics.gauge reg ~help:"Live objects per pool at the latest census" ~labels
               "pkru_census_live_objects")
            (float_of_int p.Census.cp_live_objects);
          Metrics.set
            (Metrics.gauge reg
               ~help:"1 - live_bytes/(pages_in_use * page_size) at the latest census" ~labels
               "pkru_census_fragmentation")
            p.Census.cp_fragmentation;
          Metrics.set
            (Metrics.gauge reg ~help:"Pool pages currently handed to the allocator" ~labels
               "pkru_pool_pages_in_use")
            (float_of_int p.Census.cp_pages_in_use);
          Metrics.set
            (Metrics.gauge reg ~help:"Peak of pool pages in use" ~labels
               "pkru_pool_high_water_pages")
            (float_of_int p.Census.cp_high_water_pages);
          Metrics.set
            (Metrics.gauge reg ~help:"Live bytes per pool" ~labels "pkru_pool_live_bytes")
            (float_of_int p.Census.cp_live_bytes);
          Metrics.set
            (Metrics.gauge reg ~help:"High-water mark of live bytes per pool" ~labels
               "pkru_pool_peak_live_bytes")
            (float_of_int p.Census.cp_peak_live_bytes);
          Metrics.incr ~by:p.Census.cp_allocs
            (Metrics.counter reg ~help:"Allocations per pool" ~labels "pkru_pool_allocs_total");
          Metrics.incr ~by:p.Census.cp_frees
            (Metrics.counter reg ~help:"Frees per pool" ~labels "pkru_pool_frees_total"))
        snap.Census.pools;
      List.iter
        (fun (s : Census.site_stats) ->
          let labels = [ ("site", s.Census.cs_site); ("pool", s.Census.cs_pool) ] in
          Metrics.set
            (Metrics.gauge reg ~help:"Live bytes per site at the latest census" ~labels
               "pkru_census_site_live_bytes")
            (float_of_int s.Census.cs_live_bytes);
          Metrics.set
            (Metrics.gauge reg ~help:"Live objects per site at the latest census" ~labels
               "pkru_census_site_live_objects")
            (float_of_int s.Census.cs_live_objects))
        snap.Census.sites;
      Metrics.attach_histogram reg ~help:"Live-object ages at the latest census (cycles)"
        "pkru_census_object_age_cycles" snap.Census.ages));
  reg

let prometheus ?attribution ?sampler ?census sink =
  Metrics.expose (to_metrics ?attribution ?sampler ?census sink)
