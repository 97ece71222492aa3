(** The four-stage PKRU-Safe toolchain driver (paper Fig. 1).

    {ol
    {- the developer annotates untrusted crates on the source module
       ([Ir.Module_ir.mark_untrusted] — the "4 lines per library");}
    {- {!build} with [Profiling] produces the instrumented profile build;}
    {- running the profile inputs populates the profile
       ({!collect_profile});}
    {- {!build} with [Mpk] and that profile produces the enforcing
       application.}}

    Host functions are registered per build because they close over the
    build's environment (machine, allocator). *)

type host_spec = string * (Pkru_safe.Env.t -> Interp.host_fn)
(** Name and factory for an embedder-provided native function. *)

type build = {
  interp : Interp.t;
  env : Pkru_safe.Env.t;
  pass_stats : Ir.Passes.stats;
}

val build :
  ?cost:Sim.Cost.t ->
  ?mu_backend:Allocators.Pkalloc.mu_backend ->
  ?profile:Runtime.Profile.t ->
  ?hosts:host_spec list ->
  mode:Pkru_safe.Config.mode ->
  Ir.Module_ir.t ->
  (build, string) result
(** Compiles the source module for [mode] (running the pass pipeline on a
    copy) and instantiates a fresh machine + environment. *)

val build_static :
  ?cost:Sim.Cost.t ->
  ?mu_backend:Allocators.Pkalloc.mu_backend ->
  ?hosts:host_spec list ->
  mode:Pkru_safe.Config.mode ->
  Ir.Module_ir.t ->
  (build * Ir.Static_taint.result, string) result
(** Like {!build}, but partitions the heap from the static taint analysis
    instead of a dynamic profile (the §6 alternative) — no profiling runs
    required.  The returned analysis result reports which sites were
    deemed shared. *)

val collect_profile :
  ?hosts:host_spec list ->
  Ir.Module_ir.t ->
  inputs:(Interp.t -> unit) list ->
  (Runtime.Profile.t, string) result
(** Builds the profiling configuration and runs every profiling input
    against it, returning the merged profile. *)
