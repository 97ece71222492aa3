(** The IR interpreter.

    Executes a compiled module against a {!Pkru_safe.Env.t}: loads and
    stores go through the simulated machine's checked access path (so MPK
    enforcement and profiling faults happen for real), allocator calls
    dispatch on the pool the compile pipeline chose for each site, and
    [Gate] instructions drive the runtime's call gates.  Costs are charged
    per instruction from the machine's cost model. *)

type host_fn = int list -> int
(** A native (embedder-provided) function; receives evaluated arguments. *)

exception Trap of string
(** Raised on dynamic errors: fuel exhaustion, bad indirect-call targets,
    division by zero, missing entry function. *)

type t

val create : ?fuel:int -> Ir.Module_ir.t -> Pkru_safe.Env.t -> t
(** [fuel] bounds the number of executed instructions (default 500M). *)

val register_host : t -> string -> host_fn -> unit

val modul : t -> Ir.Module_ir.t

val run : t -> string -> int list -> int
(** [run t fn args] calls [fn]; functions returning no value yield 0.
    @raise Trap on dynamic errors
    @raise Vmm.Fault.Unhandled when enforcement kills an access *)
