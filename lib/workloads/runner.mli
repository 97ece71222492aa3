(** The benchmark runner, the one module that builds a world and
    measures a run: executes a workload under the paper's three
    configurations and reports cycles, transitions and %MU.

    For each benchmark the runner first replays the paper's methodology:
    profile the workload on an instrumented build, then build base / alloc
    / mpk images.  The profile for a whole suite is the merge of its
    benchmarks' profiling runs (the "profiling corpus").  Checksum output
    is compared across configurations, so a mis-partitioned heap cannot
    silently corrupt a result. *)

type measurement = {
  cycles : int;
  transitions : int;
  pct_mu : float;
  mt_bytes : int;  (** trusted-allocator bytes kept in MT *)
  mu_bytes : int;  (** trusted-allocator bytes moved to MU *)
  output : string list;
  trace : Telemetry.Sink.t option;
      (** telemetry captured during the timed script run, when the run was
          made with [~telemetry:true] *)
  samples : Telemetry.Sampler.t option;
      (** cycle-sampled compartment stacks from the timed script run, when
          the run was made with [~sample_every] *)
  census : Telemetry.Census.t option;
      (** periodic heap-census snapshots from the timed script run, when
          the run was made with [~census_every] *)
  quarantined_sites : string list;
      (** pkalloc's site-override table after the run (sorted) — sites the
          mitigator's Promote policy or an audit promotion routed to MU *)
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
  mean_alloc_pct : float;   (** mean of per-benchmark alloc overheads *)
  mean_mpk_pct : float;
  total_transitions : int;  (** summed over the suite's mpk runs *)
  mean_pct_mu : float;      (** byte-weighted %MU across the suite *)
}

val load :
  ?backing:Allocators.Backing.t ->
  ?arm:(Pkru_safe.Env.t -> unit) ->
  profile:Runtime.Profile.t ->
  Pkru_safe.Config.t ->
  Bench_def.bench ->
  Browser.t
(** The one way a world is built: a fresh environment for the
    configuration and profile (on [backing], a fleet session's budget
    recorder), [arm] applied to it before anything runs, the browser with
    the bench's engine seed, then the page load, as setup.  The bench's
    script is not run. *)

val profile_bench : Bench_def.bench -> Runtime.Profile.t
(** One benchmark's profile: a fresh profiling build loads the page and
    runs the script once, and the sites its provenance runtime recorded
    are returned.  {!profile_for}'s enforcement modes, the ablations,
    chaos and bench's site, mitigation, census and telemetry sections
    start here; {!run_suite} merges one per benchmark into the suite's
    profiling corpus. *)

val profile_for : Pkru_safe.Config.mode -> Bench_def.bench -> Runtime.Profile.t
(** The profile a build in [mode] gets: {!profile_bench} for [Alloc] and
    [Mpk], the empty profile for [Base] and [Profiling]. *)

val run_scripts :
  ?trace:Telemetry.Sink.t -> ?engine_tier:Engine.tier -> Browser.t -> string list -> unit
(** The timed phase: resets the counters and the selector statistics,
    then runs the scripts in order on [engine_tier] (default AST).
    [trace] is attached for the run, then injected with the machine's TLB
    hit and miss deltas and the flush generations its TLBs counted for
    mapping changes (a PKRU write flushes nothing), as
    ["tlb_hit"]/["tlb_miss"]/["tlb_flush"] (never emitted from the access
    path, so traces stay bit-identical TLB on or off), and the selector
    cache counters as ["engine_selector_hit"]/["engine_selector_miss"]. *)

val run_config :
  ?telemetry:bool ->
  ?sample_every:int ->
  ?census_every:int ->
  ?recorder:Telemetry.Flight.t ->
  profile:Runtime.Profile.t ->
  Pkru_safe.Config.t ->
  Bench_def.bench ->
  measurement
(** One benchmark under one configuration ({!load}, then {!run_scripts}
    on the script, so the script execution is what is timed).  The
    configuration carries the mode and every build choice (MU allocator,
    cost model, TLB, mitigation, defenses).  With [~telemetry:true] a
    fresh sink traces the timed script and is returned in [trace].  With
    [~sample_every:n] a {!Telemetry.Sampler} snapshots the thread's
    compartment stack every [n] simulated cycles and is returned in
    [samples].  With [~census_every:n] a {!Telemetry.Census} walks the
    heap every [n] simulated cycles (tracking covers page-load
    allocations too) and is returned in [census].  None of the three
    charges simulated cycles, so traced/sampled/censused and plain runs
    report identical [cycles].  [recorder] is attached, with the
    machine's context, for the whole run, so failures dump into it. *)

val audit :
  recorder:Telemetry.Flight.t option ->
  quarantine:string list ->
  census_every:int ->
  profile:Runtime.Profile.t ->
  Pkru_safe.Config.t ->
  Bench_def.bench ->
  Pkru_safe.Env.t * Telemetry.Sink.t * Telemetry.Census.t * Audit.report
(** The run the provenance audit scans: {!load}'s world with the
    [quarantine] sites routed to MU and census tracking on; a sink and a
    census (a snapshot every [census_every] cycles) watch the page load
    and the script, and no counter is reset, so the environment's cycles
    include the page load; then {!Audit.scan} of the census metadata.
    Returns the environment, sink, census and report.  [recorder] is
    attached as in {!run_config}. *)

val run_suite :
  ?progress:(string -> unit) ->
  ?telemetry:bool ->
  Bench_def.suite ->
  suite_result
(** Full methodology for one suite: the merge of every benchmark's
    {!profile_bench} is the profile for all of its enforcement runs;
    [progress] is called per benchmark. *)

val geomean_score : suite_result -> (Pkru_safe.Config.mode -> float)
(** Geometric-mean score per configuration (Table 3). *)
