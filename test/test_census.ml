(* Tests for the continuous heap census: architectural invisibility
   (censused and uncensused runs retire bit-identical cycles, event
   traces and counters), snapshot content, and the metrics export. *)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let small_bench =
  Workloads.Bench_def.bench ~page:(Workloads.Dom_scripts.page ~rows:4) "census-bench"
    (Workloads.Dom_scripts.dom_attr ~iters:8)

let bench_profile () =
  Workloads.Runner.profile_bench small_bench

(* (1) The census must not perturb measurements: a censused run equals an
   uncensused one in every field the paper's tables derive from, and two
   uncensused runs equal each other (determinism control). *)
let test_census_does_not_perturb_measurements () =
  let profile = bench_profile () in
  let strip (m : Workloads.Runner.measurement) =
    ( m.Workloads.Runner.cycles,
      m.Workloads.Runner.transitions,
      m.Workloads.Runner.pct_mu,
      m.Workloads.Runner.mt_bytes,
      m.Workloads.Runner.mu_bytes,
      m.Workloads.Runner.output )
  in
  let run ?census_every () =
    strip
      (Workloads.Runner.run_config ?census_every ~profile
         (Pkru_safe.Config.make Pkru_safe.Config.Mpk)
         small_bench)
  in
  let off1 = run () in
  let off2 = run () in
  let on = run ~census_every:32 () in
  Alcotest.(check bool) "uncensused runs identical" true (off1 = off2);
  Alcotest.(check bool) "censused run does not perturb" true (off1 = on)

(* (2) Event traces and counters are bit-identical with the census on or
   off: snapshots record spans only, never events.  The censused run's
   span store must additionally carry census-kind spans. *)
let test_census_event_trace_bit_identical () =
  let profile = bench_profile () in
  let run ?census_every () =
    let m =
      Workloads.Runner.run_config ~telemetry:true ?census_every
        ~profile (Pkru_safe.Config.make Pkru_safe.Config.Mpk) small_bench
    in
    (m, Option.get m.Workloads.Runner.trace)
  in
  let m_off, sink_off = run () in
  let m_on, sink_on = run ~census_every:32 () in
  Alcotest.(check int) "cycles bit-identical" m_off.Workloads.Runner.cycles
    m_on.Workloads.Runner.cycles;
  Alcotest.(check bool) "event traces bit-identical" true
    (Telemetry.Sink.events sink_off = Telemetry.Sink.events sink_on);
  Alcotest.(check bool) "counters bit-identical" true
    (Telemetry.Sink.counters sink_off = Telemetry.Sink.counters sink_on);
  let census_spans sink =
    List.filter
      (fun (r : Telemetry.Span.record) -> r.Telemetry.Span.kind = Telemetry.Span.Census)
      (Telemetry.Span.closed (Telemetry.Sink.spans sink))
  in
  Alcotest.(check int) "no census spans when off" 0 (List.length (census_spans sink_off));
  Alcotest.(check bool) "census spans recorded when on" true (census_spans sink_on <> [])

(* (3) Enabling the live-object table alone (track_census without an
   installed census) must also leave the run bit-identical: the
   bookkeeping is pure OCaml, off the simulated machine. *)
let test_tracking_alone_does_not_perturb () =
  let profile = bench_profile () in
  let run tracked =
    let env =
      ok (Pkru_safe.Env.create ~profile (Pkru_safe.Config.make Pkru_safe.Config.Mpk))
    in
    if tracked then Pkru_safe.Env.track_census env;
    let browser =
      Browser.create ~engine_seed:small_bench.Workloads.Bench_def.engine_seed env
    in
    Browser.load_page browser small_bench.Workloads.Bench_def.page;
    ignore (Browser.exec_script browser small_bench.Workloads.Bench_def.script);
    (Pkru_safe.Env.cycles env, Pkru_safe.Env.transitions env, Browser.console browser)
  in
  Alcotest.(check bool) "tracked run identical to untracked" true (run false = run true)

(* (4) Snapshot content: both pools reported, non-negative accounting,
   per-site live views present, object ages observed, snapshots kept in
   cycle order, and the tick cadence respected. *)
let test_snapshot_content () =
  let profile = bench_profile () in
  let m =
    Workloads.Runner.run_config ~census_every:64 ~profile
      (Pkru_safe.Config.make Pkru_safe.Config.Mpk)
      small_bench
  in
  let census = Option.get m.Workloads.Runner.census in
  Alcotest.(check bool) "snapshots taken" true (Telemetry.Census.taken_total census > 0);
  Alcotest.(check int) "every" 64 (Telemetry.Census.every census);
  let snaps = Telemetry.Census.snapshots census in
  Alcotest.(check bool) "snapshots in ascending cycle order" true
    (List.sort
       (fun (a : Telemetry.Census.snapshot) b ->
         compare a.Telemetry.Census.at_cycle b.Telemetry.Census.at_cycle)
       snaps
    = snaps);
  let snap =
    match Telemetry.Census.latest census with Some s -> s | None -> Alcotest.fail "no snapshot"
  in
  let pool name =
    match
      List.find_opt
        (fun (p : Telemetry.Census.pool_stats) -> p.Telemetry.Census.cp_pool = name)
        snap.Telemetry.Census.pools
    with
    | Some p -> p
    | None -> Alcotest.fail ("missing pool " ^ name)
  in
  let mt = pool "mt" and mu = pool "mu" in
  Alcotest.(check bool) "mu has live bytes" true (mu.Telemetry.Census.cp_live_bytes > 0);
  List.iter
    (fun (p : Telemetry.Census.pool_stats) ->
      Alcotest.(check bool) "live bytes non-negative" true (p.Telemetry.Census.cp_live_bytes >= 0);
      Alcotest.(check bool) "peak >= live" true
        (p.Telemetry.Census.cp_peak_live_bytes >= p.Telemetry.Census.cp_live_bytes);
      Alcotest.(check bool) "high-water >= in-use" true
        (p.Telemetry.Census.cp_high_water_pages >= p.Telemetry.Census.cp_pages_in_use);
      Alcotest.(check bool) "fragmentation in [0,1]" true
        (p.Telemetry.Census.cp_fragmentation >= 0.0 && p.Telemetry.Census.cp_fragmentation <= 1.0))
    [ mt; mu ];
  Alcotest.(check bool) "per-site stats present" true (snap.Telemetry.Census.sites <> []);
  List.iter
    (fun (s : Telemetry.Census.site_stats) ->
      Alcotest.(check bool) "site pool tag" true
        (s.Telemetry.Census.cs_pool = "mt" || s.Telemetry.Census.cs_pool = "mu");
      Alcotest.(check bool) "site objects positive" true (s.Telemetry.Census.cs_live_objects > 0))
    snap.Telemetry.Census.sites;
  Alcotest.(check bool) "object ages observed" true
    (Telemetry.Histogram.count snap.Telemetry.Census.ages > 0)

(* (5) The digest round-trips through our JSON parser and reports the
   snapshot totals. *)
let test_digest_json_roundtrip () =
  let profile = bench_profile () in
  let m =
    Workloads.Runner.run_config ~census_every:64 ~profile
      (Pkru_safe.Config.make Pkru_safe.Config.Mpk)
      small_bench
  in
  let census = Option.get m.Workloads.Runner.census in
  let parsed =
    Util.Json.of_string (Util.Json.to_string (Telemetry.Census.digest_json census))
  in
  Alcotest.(check int) "snapshots_total" (Telemetry.Census.taken_total census)
    (Util.Json.to_int (Util.Json.member "snapshots_total" parsed));
  Alcotest.(check int) "every" 64
    (Util.Json.to_int (Util.Json.member "census_every_cycles" parsed))

(* (6) The metrics export: pkru_census_* and pkru_pool_* families appear
   in the Prometheus exposition when a census is supplied. *)
let test_census_metrics_export () =
  let profile = bench_profile () in
  let m =
    Workloads.Runner.run_config ~telemetry:true ~census_every:64
      ~profile (Pkru_safe.Config.make Pkru_safe.Config.Mpk) small_bench
  in
  let sink = Option.get m.Workloads.Runner.trace in
  let census = Option.get m.Workloads.Runner.census in
  let prom = Telemetry.Export.prometheus ~census sink in
  let contains needle =
    let nl = String.length needle and hl = String.length prom in
    let rec go i = i + nl <= hl && (String.sub prom i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun family ->
      Alcotest.(check bool) (family ^ " exported") true (contains family))
    [
      "pkru_census_snapshots_total";
      "pkru_census_live_bytes";
      "pkru_census_site_live_bytes";
      "pkru_census_object_age_cycles";
      "pkru_pool_live_bytes";
      "pkru_pool_pages_in_use";
    ];
  (* Without a census the families must be absent. *)
  let prom_off = Telemetry.Export.prometheus sink in
  let contains_off needle =
    let nl = String.length needle and hl = String.length prom_off in
    let rec go i = i + nl <= hl && (String.sub prom_off i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "census families absent without census" false
    (contains_off "pkru_census_")

(* (7) A flight dump taken while a census is live embeds the latest
   snapshot, and the doctor renderer prints it. *)
let test_flight_dump_embeds_census () =
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Mpk)) in
  Pkru_safe.Env.track_census env;
  let site = Runtime.Alloc_id.make ~func_id:1 ~block_id:1 ~call_id:1 in
  let _ = Pkru_safe.Env.alloc env ~site 64 in
  let census = Telemetry.Census.create ~every:16 () in
  let recorder = Telemetry.Flight.create () in
  Telemetry.Flight.set_context recorder (Pkru_safe.Env.flight_context env);
  let dump =
    Telemetry.Ctx.with_census (Pkru_safe.Env.ctx env)
      ~provider:(Pkru_safe.Env.census_snapshot env) census
      (fun () ->
        (* Charge past a period boundary so a snapshot exists. *)
        ignore (Pkru_safe.Env.malloc_untrusted env 32);
        Sim.Cpu.charge (List.hd (Sim.Machine.cpus (Pkru_safe.Env.machine env))) 64;
        Telemetry.Flight.record recorder ~reason:"census-embed-test" ~details:[])
  in
  let context = Util.Json.member "context" dump in
  (match Util.Json.member "census" context with
  | Util.Json.Obj _ -> ()
  | _ -> Alcotest.fail "dump context lacks a census snapshot");
  let rendered = Telemetry.Flight.render dump in
  let contains needle =
    let nl = String.length needle and hl = String.length rendered in
    let rec go i = i + nl <= hl && (String.sub rendered i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "doctor render shows the census" true (contains "heap census")

(* (8) Alloc_stats satellites: live-object and peak-live accounting. *)
let test_alloc_stats_peak () =
  let s = Allocators.Alloc_stats.create () in
  Allocators.Alloc_stats.record_alloc s 100;
  Allocators.Alloc_stats.record_alloc s 200;
  Alcotest.(check int) "live objects" 2 (Allocators.Alloc_stats.live_objects s);
  Alcotest.(check int) "peak at high water" 300 (Allocators.Alloc_stats.peak_live_bytes s);
  Allocators.Alloc_stats.record_free s 200;
  Alcotest.(check int) "live objects after free" 1 (Allocators.Alloc_stats.live_objects s);
  Alcotest.(check int) "live bytes after free" 100 (Allocators.Alloc_stats.live_bytes s);
  Alcotest.(check int) "peak survives the free" 300 (Allocators.Alloc_stats.peak_live_bytes s);
  Allocators.Alloc_stats.record_alloc s 50;
  Alcotest.(check int) "peak unchanged below high water" 300
    (Allocators.Alloc_stats.peak_live_bytes s)

(* (9) The armed flag.  [Ctx.hooked] folds the sampler and census slots
   into the one field a charge tests, so every bracket exit must leave it
   matching the slots.  Nest each bracket inside the other, with and
   without an inner raise: after the inner exit the outer hook must
   still tick, and the cycles retired must equal an unhooked run. *)
let test_hooked_flag_nesting () =
  let workload env =
    let m = Pkru_safe.Env.machine env in
    let addr = Pkru_safe.Env.malloc_untrusted env 64 in
    for i = 1 to 40 do
      Sim.Machine.write_u64 m addr i;
      ignore (Sim.Machine.read_u64 m addr);
      Sim.Machine.charge m 3
    done
  in
  let fresh () =
    let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Mpk)) in
    Pkru_safe.Env.track_census env;
    env
  in
  let plain =
    let env = fresh () in
    workload env;
    workload env;
    workload env;
    Pkru_safe.Env.cycles env
  in
  let flag_matches what ctx =
    Alcotest.(check bool) what
      (Option.is_some ctx.Telemetry.Ctx.sampler || Option.is_some ctx.Telemetry.Ctx.census)
      ctx.Telemetry.Ctx.hooked
  in
  let run ~census_outside ~inner_raises =
    let env = fresh () in
    let ctx = Pkru_safe.Env.ctx env in
    let sampler = Telemetry.Sampler.create ~every:16 in
    let census = Telemetry.Census.create ~every:16 () in
    let with_sampler f = Telemetry.Ctx.with_sampler ctx sampler f in
    let with_census f =
      Telemetry.Ctx.with_census ctx ~provider:(Pkru_safe.Env.census_snapshot env) census f
    in
    let outer, inner, outer_ticks =
      if census_outside then
        (with_census, with_sampler, fun () -> Telemetry.Census.taken_total census)
      else (with_sampler, with_census, fun () -> Telemetry.Sampler.samples_total sampler)
    in
    let label what =
      Printf.sprintf "%s (%s outside%s)" what
        (if census_outside then "census" else "sampler")
        (if inner_raises then ", inner raise" else "")
    in
    outer (fun () ->
        flag_matches (label "armed by the outer bracket") ctx;
        workload env;
        (try
           inner (fun () ->
               flag_matches (label "armed inside both") ctx;
               workload env;
               if inner_raises then failwith "inner")
         with Failure _ -> ());
        flag_matches (label "after the inner exit") ctx;
        Alcotest.(check bool) (label "still armed") true ctx.Telemetry.Ctx.hooked;
        let before = outer_ticks () in
        workload env;
        Alcotest.(check bool) (label "outer hook still ticks") true (outer_ticks () > before));
    flag_matches (label "after the outer exit") ctx;
    Alcotest.(check bool) (label "disarmed") false ctx.Telemetry.Ctx.hooked;
    Alcotest.(check int) (label "cycles equal the unhooked run") plain (Pkru_safe.Env.cycles env)
  in
  List.iter
    (fun (census_outside, inner_raises) -> run ~census_outside ~inner_raises)
    [ (false, false); (false, true); (true, false); (true, true) ]

let suite =
  [
    Alcotest.test_case "census does not perturb measurements" `Quick
      test_census_does_not_perturb_measurements;
    Alcotest.test_case "census event trace bit-identical" `Quick
      test_census_event_trace_bit_identical;
    Alcotest.test_case "tracking alone does not perturb" `Quick
      test_tracking_alone_does_not_perturb;
    Alcotest.test_case "snapshot content" `Quick test_snapshot_content;
    Alcotest.test_case "digest json roundtrip" `Quick test_digest_json_roundtrip;
    Alcotest.test_case "census metrics export" `Quick test_census_metrics_export;
    Alcotest.test_case "flight dump embeds census" `Quick test_flight_dump_embeds_census;
    Alcotest.test_case "alloc stats peak tracking" `Quick test_alloc_stats_peak;
    Alcotest.test_case "armed flag survives nesting" `Quick test_hooked_flag_nesting;
  ]
