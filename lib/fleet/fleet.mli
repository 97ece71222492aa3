(** Multi-session fleet: independent session runs and a replayed
    per-CPU schedule.

    Runs N concurrent browsing sessions — each a complete vertical slice
    with its own {!Pkru_safe.Env}, browser and engine.  Every session
    runs to completion on its own, as one job of a {!Util.Pool} over
    OCaml 5 domains, recording its {e slices}: the cycles and page-budget
    events between the yield points its evaluator reaches every
    [timeslice] ticks (a hook that charges no simulated cycles and emits
    nothing, so a single-session fleet run is bit-identical to
    {!Workloads.Runner}).  The calling domain then replays a
    deterministic per-CPU schedule over those slices: empty CPUs admit
    pending sessions or steal the back half of the longest queue.  With
    [page_budget] set, each slice's takes and gives are applied to one
    shared {!Allocators.Backing} budget in schedule order; a take the
    budget refuses re-runs that session with the take refused, and
    exhaustion retires the victim session with an [Oom] outcome.

    Determinism: every field of the result — per-session cycles,
    transitions, checksums, CPUs and latencies, yields, steals, makespan
    and the budget's denials and low-water mark — is the same for any
    domain count, and reproducible for fixed parameters.  Per-session
    cycles, transitions and checksums are also independent of [cpus]
    and [timeslice] when [page_budget] is [None]; with a shared budget,
    sessions couple through which of them finds it dry. *)

type job = {
  job_name : string;
  job_page : string;  (** HTML loaded before the scripts run (untimed) *)
  job_scripts : string list;  (** the timed workload *)
  job_seed : int;  (** engine Math.random seed *)
}

val job_of_bench : Workloads.Bench_def.bench -> job

type outcome =
  | Completed
  | Oom  (** the shared page budget (or the session's pools) ran dry *)
  | Failed of string

val outcome_to_string : outcome -> string

type session_result = {
  sr_index : int;  (** admission index, 0-based *)
  sr_name : string;  (** job name suffixed with the session index *)
  sr_cpu : int;  (** CPU the session retired on (after any steals) *)
  sr_cycles : int;  (** simulated cycles of the timed phase *)
  sr_transitions : int;  (** compartment transitions of the timed phase *)
  sr_checksum : int;  (** hash of console output, cycles, transitions *)
  sr_latency_cycles : int;  (** admission-to-retire, in cycles (= ns) *)
  sr_outcome : outcome;
}

type backing_stats = {
  bk_total_pages : int;
  bk_min_available : int;  (** budget low-water mark *)
  bk_denials : int;  (** page requests refused *)
}

type result = {
  r_sessions : int;
  r_cpus : int;
  r_timeslice : int;
  r_makespan_cycles : int;  (** max per-CPU virtual clock *)
  r_sessions_per_sec : float;  (** N * 1e9 / makespan (1 cycle = 1 ns) *)
  r_p50_latency_ns : float;
  r_p99_latency_ns : float;
  r_total_cycles : int;  (** sum of per-session timed cycles *)
  r_yields : int;  (** cooperative preemptions *)
  r_steals : int;  (** sessions migrated between CPUs *)
  r_completed : int;
  r_oom : int;
  r_failed : int;
  r_results : session_result list;  (** admission order *)
  r_trace : Telemetry.Sink.t option;  (** telemetry mode only *)
  r_backing : backing_stats option;  (** page-budget mode only *)
}

val run :
  ?mode:Pkru_safe.Config.mode ->
  ?profile:Runtime.Profile.t ->
  ?cpus:int ->
  ?timeslice:int ->
  ?max_live:int ->
  ?page_budget:int ->
  ?tier:Engine.tier ->
  ?telemetry:bool ->
  ?defenses:Pkru_safe.Config.defenses ->
  ?domains:int ->
  sessions:int ->
  job list ->
  result
(** [run ~sessions:n jobs] admits [n] sessions cycling round-robin over
    [jobs].  [timeslice] is the yield budget in evaluator ticks (default
    4000); [max_live] bounds the sessions the simulated scheduler has
    admitted at once (default 128); [page_budget] puts all sessions on a
    shared backing-page budget.  [domains] is the pool's domain count
    (default [Domain.recommended_domain_count ()]); the result does not
    depend on it.

    [defenses] (default {!Pkru_safe.Config.no_defenses}) propagates the
    Garmr hardened-gate policies into every session's config; with
    [gate_reverify] on, every yield point re-checks the session's live
    PKRU against its gate's resident view and retires the session
    [Failed] fail-stop on a mismatch (no further instruction runs).
    The check charges no cycles and emits nothing when it passes, so a
    defended benign fleet is bit-identical to an undefended one.

    [telemetry] (single-session, single-CPU only) traces the session
    with the runner's own timed phase ({!Workloads.Runner.run_scripts}
    with a sink), so the trace is comparable bit-for-bit with the
    runner's; it is returned in [r_trace].  Each session's telemetry lives on its own machine, so
    sinks attached to other environments neither see the fleet nor stop
    it.

    @raise Invalid_argument on nonsensical parameters. *)

(** {2 Attack-program scheduling (the Garmr battery)}

    Unlike {!run}'s structurally independent sessions, [run_programs]
    multiplexes raw programs over {e one shared environment} — same
    machine, page table and signal dispositions, sibling harts — which
    is exactly the setting the Garmr attack classes need.  Each program
    runs on its own simulated thread and parks itself via the explicit
    [yield] callback (legal anywhere, including mid-gate while resident
    in U).  Scheduling is deterministic: the runnable program whose hart
    has retired the fewest simulated cycles runs next (program order
    breaks ties). *)

type program = {
  p_name : string;  (** names the program in re-verification flight dumps *)
  p_body : yield:(unit -> unit) -> unit;
}

type program_result = {
  pr_name : string;
  pr_hart : int;  (** the hart id this program's thread ran on *)
  pr_outcome : outcome;
  pr_cycles : int;  (** cycles the program's hart retired *)
  pr_yields : int;
  pr_resumes : int;
}

type battery = {
  b_programs : program_result list;  (** program order *)
  b_makespan_cycles : int;
  b_yields : int;
  b_resume_checks : int;
      (** gate re-verifications performed on resume (0 unless the
          environment's config enables [gate_reverify]) *)
  b_resume_kills : int;  (** resumes refused fail-stop by re-verification *)
}

val run_programs : Pkru_safe.Env.t -> program list -> battery
(** Runs the programs to completion over [env].  Spawns one fresh
    simulated thread per program; honours the environment's
    [gate_reverify] defense on every resume (a mismatch drops the
    continuation — the program retires [Failed] without executing
    another instruction).  Every program's telemetry lands in [env]'s
    context ({!Pkru_safe.Env.ctx}).
    @raise Invalid_argument on an empty program list *)

val metrics : result -> Telemetry.Metrics.t
(** Fleet headline metrics (sessions/sec, p50/p99 latency, yields,
    steals, per-outcome session counts, backing budget stats) as a
    metrics registry for [expose]/[to_json]. *)

val to_json : ?per_session:bool -> result -> Util.Json.t
(** Bench/CLI artifact.  [per_session] appends the full per-session
    table (name, cpu, cycles, checksum, latency, outcome). *)
