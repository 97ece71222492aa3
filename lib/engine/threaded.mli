(** The fast bytecode tier: direct-threaded (closure-compiled) dispatch,
    profiler-selected superinstructions and inline caches, always all on.
    No product path runs it: it is the engine of perfbench's fleet-browse
    workload and the subject of the tier-equivalence tests.

    Architecturally invisible by construction: every layer elides only
    host-side OCaml work (decode, operand-stack traffic, hash probes)
    while performing the identical sequence of simulated charges, machine
    accesses and fault checks as the reference interpreter
    ({!Bytecode.run}).  Differential tests assert bit-identical cycles,
    compartment transitions and telemetry traces on every workload
    kernel.  Only host wall-clock may differ. *)

type stats = {
  mutable prop_hits : int;
  mutable prop_misses : int;
  mutable super_execs : int;  (** fused-pair executions *)
}

val make_stats : unit -> stats
(** A fresh zeroed counter record.  Counters are per-run (host-side
    observability only; variable-IC counters live in {!Eval.ic_stats}):
    {!Engine.t} owns one record and passes it to every {!run}, so
    concurrent sessions never cross-pollute each other's hit rates. *)

val reset_stats : stats -> unit

val run : stats:stats -> Eval.t -> Bytecode.program -> Value.t
(** Same contract as {!Bytecode.run}, same observable simulation;
    [stats] is accumulated into, never reset here. *)
