(** The per-build runtime environment.

    One [Env.t] corresponds to one compiled application image: a simulated
    machine, the global allocator the build linked (plain fast allocator
    for [Base], pkalloc otherwise), the call gates the compiler inserted
    (or not), and — in a [Profiling] build — the provenance-tracking
    runtime with its fault handler installed.

    Application substrates (the IR interpreter, the browser, the script
    engine) perform every allocation through {!alloc} with their
    compiler-assigned {!Runtime.Alloc_id.t}; the environment dispatches the
    site to MT or MU according to the build mode and the input profile,
    exactly as the profile-guided instrumentation rewrites allocation call
    sites (§4.3.1). *)

type t

val create :
  ?profile:Runtime.Profile.t ->
  ?backing:Allocators.Backing.t ->
  Config.t ->
  (t, string) result
(** [profile] is required by [Alloc] and [Mpk] modes to know which sites
    move to MU (an empty profile is legal: nothing moves — that is what
    makes an unprofiled enforcement build crash on shared data).
    [backing] puts both of this environment's pools on a shared page
    budget (fleet memory contention); exhaustion raises [Out_of_memory]
    from {!alloc}. *)

val config : t -> Config.t
val machine : t -> Sim.Machine.t

val ctx : t -> Telemetry.Ctx.t
(** The machine's telemetry slots ([Sim.Machine.ctx]): attach a sink,
    sampler, census or flight recorder here to observe this environment
    only. *)

val pkalloc : t -> Allocators.Pkalloc.t
val gate : t -> Runtime.Gate.t
(** The {e active} thread's gate. *)

val profiler : t -> Runtime.Profiler.t option

val mitigator : t -> Runtime.Mitigator.t option
(** The fault-recovery interposer, present when the configuration is
    [Mpk] with [mitigation = Some _].  Its metadata table is fed by
    {!alloc}/{!realloc}/{!dealloc} like the profiler's, and its Promote
    policy feeds back into {!alloc}'s placement via pkalloc's
    site-override table. *)

(* {2 The global-allocator surface used by application code} *)

val alloc : t -> site:Runtime.Alloc_id.t -> int -> int
(** @raise Out_of_memory when the pool is exhausted. *)

val dealloc : t -> int -> unit

val realloc : t -> int -> int -> int
(** Stays in the originating pool. @raise Out_of_memory on exhaustion. *)

val malloc_untrusted : t -> int -> int
(** The untrusted compartment's own malloc: always MU, never profiled
    (the provenance runtime only tracks allocations from MT).
    @raise Out_of_memory on exhaustion. *)

(* {2 Threads}

   PKRU-Safe supports multi-threaded programs: PKRU is a per-thread
   register and every thread carries its own compartment stack (§3.3).
   Threads here are cooperative simulation threads over one machine. *)

type thread

val main_thread : t -> thread
val spawn_thread : t -> thread
(** A fresh thread starts, like a new kernel thread, with full access;
    its gates and compartment stack are its own. *)

val run_on_thread : t -> thread -> (unit -> 'a) -> 'a
(** Executes a block as the given thread: the machine's current hart and
    the environment's active gate are switched for its duration
    (exception-safe, re-entrant). *)

val thread_cpu : thread -> Sim.Cpu.t
val thread_gate : thread -> Runtime.Gate.t

val activate_thread : t -> thread -> thread
(** Non-bracketed thread switch, returning the previously active thread.
    For effect-based schedulers whose slices cross [Effect.perform]
    boundaries (where {!run_on_thread}'s bracket cannot reach): the
    scheduler restores the returned thread itself after each slice. *)

(* {2 The compartment boundary} *)

val ffi_call : t -> (unit -> 'a) -> 'a
(** A call from T to an untrusted-library function: bracketed by call
    gates when the build has them, a plain call otherwise. *)

val callback : t -> (unit -> 'a) -> 'a
(** A call from U to an exported/address-taken T function (reverse
    gate). *)

(* {2 Results and statistics} *)

val recorded_profile : t -> Runtime.Profile.t
(** The profile collected so far. @raise Invalid_argument unless this is a
    [Profiling] build. *)

val transitions : t -> int
(** Compartment transitions summed over every thread. *)

val reset_counters : t -> unit
(** Zeroes cycle and transition counters (between warm-up and timed runs). *)

val cycles : t -> int
val percent_untrusted_bytes : t -> float
(** Percentage of the trusted side's global-allocator traffic (by bytes)
    that the build redirected to MU — the "%MU" column of Table 1.  The
    untrusted compartment's own mallocs are excluded, as in the paper. *)

val t_heap_bytes : t -> int * int
(** [(bytes kept in MT, bytes moved to MU)] of trusted global-allocator
    traffic — the inputs to {!percent_untrusted_bytes}. *)

val sites_used : t -> int
(** Distinct allocation sites that executed at least once. *)

val sites_moved : t -> int
(** Of those, sites the build placed in MU (the "274 of 12088" statistic
    of §5.3). *)

val stack_frames : t -> string list
(** The active thread's compartment nesting, root first — register this
    as the {!Telemetry.Sampler} provider to attribute cycle samples to
    compartments.  Pure reads; charges no cycles. *)

(* {2 Heap census and provenance audit} *)

val track_census : t -> unit
(** Start maintaining the census live-object table (address, size,
    AllocId and birth cycle of every live {!alloc}/{!realloc} object,
    both pools).  Opt-in and idempotent: a run that never calls this does
    no census bookkeeping at all.  Required before {!census_snapshot}
    reports per-site data, and before the provenance auditor can
    attribute leaks. *)

val census_metadata : t -> Runtime.Metadata.t option
(** The census live-object table ([None] until {!track_census}) — pass
    it to the auditor's scan as its attribution source. *)

val census_snapshot : t -> unit -> Telemetry.Census.snapshot
(** The {!Telemetry.Census} snapshot provider: per-pool (MT/MU) live
    bytes / objects / fragmentation / high-water marks from pkalloc, plus
    per-AllocId live bytes and the log₂ object-age histogram from the
    census table (empty until {!track_census}).  Pure reads; charges no
    cycles.  Install with
    [Telemetry.Ctx.with_census (Env.ctx env) ~provider:(Env.census_snapshot env) c f]. *)

val flight_context : t -> unit -> Util.Json.t
(** The {!Telemetry.Flight} context provider: simulated cycles, each
    hart's live PKRU, the active gate's nesting depth, total transitions,
    the last fault delivered and — when a mitigator tracks metadata — the
    allocation that fault landed in ([suspect_alloc]); when a census is
    attached to the machine, its latest heap snapshot rides along as [census].  Pure
    reads; charges no cycles.  Install with
    [Telemetry.Flight.set_context recorder (Env.flight_context env)]. *)
