(** The fast bytecode tier: direct-threaded (closure-compiled) dispatch,
    profiler-selected superinstructions, and inline caches.

    Architecturally invisible by construction: every layer elides only
    host-side OCaml work (decode, operand-stack traffic, hash probes)
    while performing the identical sequence of simulated charges, machine
    accesses and fault checks as the reference interpreter
    ({!Bytecode.run}).  Differential tests assert bit-identical cycles,
    compartment transitions and telemetry traces on every workload
    kernel, per layer.  Only host wall-clock — and TLB hit counts, when
    batched slot access is on — may differ. *)

type opts = {
  superinstructions : bool;  (** fuse measured-hot adjacent opcode pairs *)
  var_ic : bool;  (** scope-walk inline caches (see {!Eval.cached_lookup}) *)
  prop_ic : bool;  (** (shape, slot) property caches over hidden classes *)
  batched_slots : bool;
      (** one TLB probe per in-page 8-byte slot access
          ({!Sim.Machine.read_f64_batched}) *)
}

val all_on : opts
val all_off : opts

type stats = {
  mutable prop_hits : int;
  mutable prop_misses : int;
  mutable super_execs : int;  (** fused-pair executions *)
  mutable fused_sites : int;  (** fused sites emitted at compile time *)
}

val make_stats : unit -> stats
(** A fresh zeroed counter record.  Counters are per-run (host-side
    observability only; variable-IC counters live in {!Eval.ic_stats}):
    {!Engine.t} owns one record and passes it to every {!run}, so
    concurrent sessions never cross-pollute each other's hit rates. *)

val reset_stats : stats -> unit

val fused_pairs : (string * string) list
(** The enabled superinstruction set, as mnemonic pairs — chosen from
    [report --opcodes] measurements on dromaeo/octane (see
    EXPERIMENTS.md). *)

val run : opts:opts -> stats:stats -> Eval.t -> Bytecode.program -> Value.t
(** Same contract as {!Bytecode.run}, same observable simulation, with
    the given layers; [stats] is accumulated into, never reset here. *)
