type measurement = {
  cycles : int;
  transitions : int;
  pct_mu : float;
  mt_bytes : int;
  mu_bytes : int;
  output : string list;
  trace : Telemetry.Sink.t option;
  samples : Telemetry.Sampler.t option;
  census : Telemetry.Census.t option;
  quarantined_sites : string list;
}

type bench_result = {
  bench : string;
  base : measurement;
  alloc : measurement;
  mpk : measurement;
  alloc_overhead_pct : float;
  mpk_overhead_pct : float;
  outputs_agree : bool;
}

type suite_result = {
  suite : string;
  bench_results : bench_result list;
  mean_alloc_pct : float;
  mean_mpk_pct : float;
  total_transitions : int;
  mean_pct_mu : float;
}

(* Dumps also snapshot the machine's context (PKRU per hart, gate depth,
   last fault). *)
let attach_recorder env recorder =
  Telemetry.Flight.set_context recorder (Pkru_safe.Env.flight_context env);
  Telemetry.Ctx.set_recorder (Pkru_safe.Env.ctx env) (Some recorder)

(* [load], with the page load run under [observe] (the audit's
   observers). *)
let build ?backing ?(arm = ignore) ?(observe = fun _ load -> load ()) ~profile config
    (bench : Bench_def.bench) =
  let env =
    match Pkru_safe.Env.create ~profile ?backing config with
    | Ok env -> env
    | Error msg -> failwith ("Workloads.Runner: " ^ msg)
  in
  arm env;
  let browser = Browser.create ~engine_seed:bench.Bench_def.engine_seed env in
  observe env (fun () -> Browser.load_page browser bench.Bench_def.page);
  browser

let load ?backing ?arm ~profile config bench = build ?backing ?arm ~profile config bench

let profile_bench (bench : Bench_def.bench) =
  let browser =
    load ~profile:(Runtime.Profile.create ())
      (Pkru_safe.Config.make Pkru_safe.Config.Profiling)
      bench
  in
  ignore (Browser.exec_script browser bench.Bench_def.script);
  Pkru_safe.Env.recorded_profile (Browser.env browser)

let profile_for mode bench =
  match mode with
  | Pkru_safe.Config.Alloc | Pkru_safe.Config.Mpk -> profile_bench bench
  | Pkru_safe.Config.Base | Pkru_safe.Config.Profiling -> Runtime.Profile.create ()

let profile_suite (suite : Bench_def.suite) =
  List.fold_left
    (fun acc bench -> Runtime.Profile.merge acc (profile_bench bench))
    (Runtime.Profile.create ()) suite.Bench_def.benches

let run_scripts ?trace ?engine_tier browser scripts =
  let env = Browser.env browser in
  Pkru_safe.Env.reset_counters env;
  Browser.reset_selector_stats browser;
  let exec () =
    List.iter (fun script -> ignore (Browser.exec_script ?tier:engine_tier browser script)) scripts
  in
  match trace with
  | None -> exec ()
  | Some sink ->
    (* The counters are injected after the run, never emitted from the
       access path, so event traces and timestamps stay bit-identical
       with the TLB on or off. *)
    let machine = Pkru_safe.Env.machine env in
    let before = Sim.Machine.tlb_stats machine in
    Telemetry.Ctx.with_sink (Pkru_safe.Env.ctx env) sink exec;
    let after = Sim.Machine.tlb_stats machine in
    let add by name = Telemetry.Sink.incr sink ~by name in
    add (after.Sim.Tlb.hits - before.Sim.Tlb.hits) "tlb_hit";
    add (after.Sim.Tlb.misses - before.Sim.Tlb.misses) "tlb_miss";
    add (after.Sim.Tlb.flushes - before.Sim.Tlb.flushes) "tlb_flush";
    let sel = Browser.selector_stats browser in
    add sel.Browser.sel_hits "engine_selector_hit";
    add sel.Browser.sel_misses "engine_selector_miss"

let run_config ?(telemetry = false) ?sample_every ?census_every ?recorder ~profile config
    (bench : Bench_def.bench) =
  (* Census tracking must cover page-load allocations too: objects built
     during setup are still live — and ageing — when the timed script
     runs. *)
  let arm env =
    Option.iter (attach_recorder env) recorder;
    if census_every <> None then Pkru_safe.Env.track_census env
  in
  let browser = load ~arm ~profile config bench in
  let env = Browser.env browser in
  let ctx = Pkru_safe.Env.ctx env in
  let trace = if telemetry then Some (Telemetry.Sink.create ()) else None in
  let timed () = run_scripts ?trace browser [ bench.Bench_def.script ] in
  let sampler = Option.map (fun every -> Telemetry.Sampler.create ~every) sample_every in
  let timed =
    match sampler with
    | None -> timed
    | Some s ->
      fun () ->
        Telemetry.Ctx.with_sampler ctx ~provider:(fun () -> Pkru_safe.Env.stack_frames env) s
          timed
  in
  let census = Option.map (fun every -> Telemetry.Census.create ~every ()) census_every in
  (match census with
  | None -> timed ()
  | Some c -> Telemetry.Ctx.with_census ctx ~provider:(Pkru_safe.Env.census_snapshot env) c timed);
  let mt_bytes, mu_bytes = Pkru_safe.Env.t_heap_bytes env in
  {
    cycles = Pkru_safe.Env.cycles env;
    transitions = Pkru_safe.Env.transitions env;
    pct_mu = Pkru_safe.Env.percent_untrusted_bytes env;
    mt_bytes;
    mu_bytes;
    output = Browser.console browser;
    trace;
    samples = sampler;
    census;
    quarantined_sites = Allocators.Pkalloc.quarantined_sites (Pkru_safe.Env.pkalloc env);
  }

let audit ~recorder ~quarantine ~census_every ~profile config (bench : Bench_def.bench) =
  let sink = Telemetry.Sink.create () in
  let census = Telemetry.Census.create ~every:census_every () in
  let arm env =
    List.iter (Allocators.Pkalloc.quarantine_site (Pkru_safe.Env.pkalloc env)) quarantine;
    Pkru_safe.Env.track_census env;
    Option.iter (attach_recorder env) recorder
  in
  (* The sink and the census watch the page load too, and no counter is
     reset: the audit counts the whole run. *)
  let observe env run =
    let ctx = Pkru_safe.Env.ctx env in
    Telemetry.Ctx.with_sink ctx sink (fun () ->
        Telemetry.Ctx.with_census ctx ~provider:(Pkru_safe.Env.census_snapshot env) census run)
  in
  let browser = build ~arm ~observe ~profile config bench in
  let env = Browser.env browser in
  observe env (fun () -> ignore (Browser.exec_script browser bench.Bench_def.script));
  let metadata = Option.get (Pkru_safe.Env.census_metadata env) in
  (env, sink, census, Audit.scan ~metadata (Pkru_safe.Env.pkalloc env))

let overhead ~base ~measured =
  Util.Stats.percent_overhead ~baseline:(float_of_int base.cycles)
    ~measured:(float_of_int measured.cycles)

let run_bench ~telemetry ~profile (bench : Bench_def.bench) =
  let run mode = run_config ~telemetry ~profile (Pkru_safe.Config.make mode) bench in
  let base = run Pkru_safe.Config.Base in
  let alloc = run Pkru_safe.Config.Alloc in
  let mpk = run Pkru_safe.Config.Mpk in
  {
    bench = bench.Bench_def.name;
    base;
    alloc;
    mpk;
    alloc_overhead_pct = overhead ~base ~measured:alloc;
    mpk_overhead_pct = overhead ~base ~measured:mpk;
    outputs_agree = base.output = alloc.output && base.output = mpk.output;
  }

let run_suite ?(progress = fun _ -> ()) ?(telemetry = false) (suite : Bench_def.suite) =
  let profile = profile_suite suite in
  let bench_results =
    List.map
      (fun bench ->
        progress bench.Bench_def.name;
        run_bench ~telemetry ~profile bench)
      suite.Bench_def.benches
  in
  let mean f = Util.Stats.mean (List.map f bench_results) in
  (* Suite-level %MU is aggregated over bytes (as the paper's per-suite
     statistic is), not a mean of per-benchmark ratios. *)
  let mt = List.fold_left (fun acc r -> acc + r.mpk.mt_bytes) 0 bench_results in
  let mu = List.fold_left (fun acc r -> acc + r.mpk.mu_bytes) 0 bench_results in
  {
    suite = suite.Bench_def.suite_name;
    bench_results;
    mean_alloc_pct = mean (fun r -> r.alloc_overhead_pct);
    mean_mpk_pct = mean (fun r -> r.mpk_overhead_pct);
    total_transitions = List.fold_left (fun acc r -> acc + r.mpk.transitions) 0 bench_results;
    mean_pct_mu =
      (if mt + mu = 0 then 0.0 else 100.0 *. float_of_int mu /. float_of_int (mt + mu));
  }

let score m = 1e9 /. float_of_int (max m.cycles 1)

let geomean_score result mode =
  let pick (r : bench_result) =
    match mode with
    | Pkru_safe.Config.Base -> r.base
    | Pkru_safe.Config.Alloc -> r.alloc
    | Pkru_safe.Config.Mpk | Pkru_safe.Config.Profiling -> r.mpk
  in
  Util.Stats.geomean (List.map (fun r -> score (pick r)) result.bench_results)
