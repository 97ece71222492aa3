(** One machine's telemetry slots: the sink, sampler, census and flight
    recorder that its instrumentation sites write to.

    [Sim.Machine.create] makes one context per machine and shares it with
    the machine's harts and signal chain; reach it as [Sim.Machine.ctx]
    or [Pkru_safe.Env.ctx].  Sites match a slot directly, so an empty
    slot costs one load and one branch, and two machines in one process
    never cross-wire their telemetry. *)

type t = {
  mutable sink : Sink.t option;
  mutable sampler : Sampler.t option;  (** ticked by [Sim.Cpu.charge] *)
  mutable census : Census.t option;  (** ticked by [Sim.Cpu.charge] *)
  mutable flight : Flight.t option;  (** receives {!dump} *)
}

val create : unit -> t
(** Every slot empty. *)

val with_sink : t -> Sink.t -> (unit -> 'a) -> 'a
(** Attaches [sink] for the duration of the callback, restoring the
    previous slot afterwards (exception-safe). *)

val with_sampler : t -> ?provider:(unit -> string list) -> Sampler.t -> (unit -> 'a) -> 'a
(** Attaches the sampler for the callback, restoring the previous slot
    afterwards (exception-safe); [provider], when given, becomes the
    sampler's stack provider ({!Sampler.set_provider}). *)

val with_census : t -> ?provider:(unit -> Census.snapshot) -> Census.t -> (unit -> 'a) -> 'a
(** Like {!with_sampler}, for the heap census. *)

val with_recorder : t -> Flight.t -> (unit -> 'a) -> 'a
(** Attaches a flight recorder for the callback, restoring the previous
    slot afterwards (exception-safe). *)

val dump : t -> ?details:(string * Util.Json.t) list -> reason:string -> unit -> unit
(** The instrumentation-site entry point: snapshot everything into a dump
    on the attached recorder, falling back to this context's sink when
    the recorder has none pinned.  No-op without a recorder; never
    raises. *)
