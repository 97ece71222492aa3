(** One machine's telemetry slots: the sink, sampler, census and flight
    recorder that its instrumentation sites write to.

    [Sim.Machine.create] makes one context per machine and shares it with
    the machine's harts and signal chain; reach it as [Sim.Machine.ctx]
    or [Pkru_safe.Env.ctx].  Sites read the slots of their own machine,
    so two machines in one process never cross-wire their telemetry.

    The record is private: slots change only through the [with_*]
    brackets and {!set_recorder}, which is what keeps {!field-hooked}
    exact. *)

type t = private {
  mutable sink : Sink.t option;
  mutable sampler : Sampler.t option;  (** ticked by [Sim.Cpu.tick_hooks] *)
  mutable census : Census.t option;  (** ticked by [Sim.Cpu.tick_hooks] *)
  mutable flight : Flight.t option;  (** receives {!dump} *)
  mutable hooked : bool;
      (** [sampler <> None || census <> None], kept current by
          {!with_sampler} and {!with_census} (the only writers of those
          two slots); [Sim.Cpu.charge] tests this one flag per charge *)
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

val set_recorder : t -> Flight.t option -> unit
(** Attaches (or, with [None], detaches) a flight recorder for the rest
    of the context's life — for runs that own their machine outright. *)

val with_recorder : t -> Flight.t -> (unit -> 'a) -> 'a
(** Attaches a flight recorder for the callback, restoring the previous
    slot afterwards (exception-safe). *)

val dump : t -> ?details:(string * Util.Json.t) list -> reason:string -> unit -> unit
(** The instrumentation-site entry point: snapshot everything into a dump
    on the attached recorder, falling back to this context's sink when
    the recorder has none pinned.  No-op without a recorder; never
    raises. *)
