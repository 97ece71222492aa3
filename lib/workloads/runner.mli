(** The benchmark runner: executes a workload under the paper's three
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

val profile_bench : ?engine_tier:Engine.tier -> Bench_def.bench -> Runtime.Profile.t
(** One benchmark's profile: a fresh profiling build loads the page and
    runs the script once, and the sites its provenance runtime recorded
    are returned.  Every single-benchmark methodology run (the CLI's
    enforcement modes, the ablations, chaos, bench's site, mitigation and
    census sections) starts here; {!run_suite} merges one per benchmark
    into the suite's profiling corpus.  [engine_tier] runs the script
    under another tier (default AST), for the tier-equivalence tests. *)

val run_traced : Telemetry.Sink.t -> Browser.t -> (unit -> unit) -> unit
(** [run_traced sink browser exec] runs [exec] with [sink] attached to the
    browser's machine, then injects the post-run counters: the machine's
    TLB hit/miss/flush deltas over the run as ["tlb_hit"]/["tlb_miss"]/
    ["tlb_flush"] (never emitted from the access path, so traces stay
    bit-identical TLB on or off), and the selector cache counters as
    ["engine_selector_hit"]/["engine_selector_miss"].  Selector counters
    are injected as totals, so reset them before the run. *)

val run_config :
  ?telemetry:bool ->
  ?sample_every:int ->
  ?census_every:int ->
  ?tlb:bool ->
  ?mitigation:Runtime.Mitigator.policy ->
  ?engine_tier:Engine.tier ->
  ?recorder:Telemetry.Flight.t ->
  mode:Pkru_safe.Config.mode ->
  profile:Runtime.Profile.t ->
  Bench_def.bench ->
  measurement
(** One benchmark under one configuration (fresh machine; counters are
    reset after page load so the script execution is what is timed).
    With [~telemetry:true] a fresh sink is attached to the machine for
    the duration of the timed script and returned in the measurement's
    [trace] field, with the post-run counters of {!run_traced} injected.
    With [~sample_every:n] a {!Telemetry.Sampler} snapshots the thread's
    compartment stack every [n] simulated cycles and is returned in
    [samples].  With [~census_every:n] a
    {!Telemetry.Census} walks the heap every [n] simulated cycles
    (tracking covers page-load allocations too) and is returned in
    [census].  None of the three charges simulated cycles, so
    traced/sampled/censused and plain runs report identical [cycles].
    [tlb] forwards to {!Pkru_safe.Config.make} (default on), as does
    [mitigation] (a fault-recovery policy for [Mpk] runs; default none).
    [engine_tier] selects the engine execution tier for the timed script
    (default AST, the product's tier; the bytecode twin pins and the
    tier-equivalence tests pick the bytecode pair).  [recorder] is
    attached to the machine for the whole run, so failures dump into
    it. *)

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
