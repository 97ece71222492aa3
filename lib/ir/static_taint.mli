(** Static data-flow analysis: the alternative to dynamic profiling.

    The paper's instrumentation "supports instrumentation entirely based
    on static analysis in principle, which we tested using various small
    programs" (§6) — production use fell back to dynamic profiling
    because LLVM-scale pointer analyses were unsound, exploded, or
    over-approximated.  This module implements the static side so both
    strategies exist and can be compared.

    The analysis models the paper's taint problem directly: allocation
    sites in T are sources, interfaces to U are sinks, and "should any
    source ever flow into (or through) a sink", that site must live in MU
    (§3.4).  It is:
    {ul
    {- {b sound} for the IR's features: flow- and context-insensitive
       over-approximation with a global field-insensitive heap model
       ([contents : site -> sites stored into objects of that site]), a
       transitive-reachability closure (U can chase pointers out of any
       shared object), and conservative handling of indirect calls (any
       address-taken function of matching arity) and host calls (treated
       as sinks);}
    {- {b imprecise} by design: a site that flows to U only on a dead
       branch is still flagged — which is precisely the
       over-approximation §6 complains about, demonstrated in the test
       suite.}}

    Run after {!Passes.assign_alloc_ids} so sites are stable. *)

type result = {
  shared : Runtime.Alloc_id.Set.t; (** sites that must be placed in MU *)
  iterations : int;                (** fixpoint rounds until convergence *)
}

val analyze : Module_ir.t -> result
(** Values passed to host functions are assumed to escape to the
    untrusted side. *)
