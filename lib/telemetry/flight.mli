(** The black-box flight recorder.

    Always-on once attached to a machine's context ({!Ctx}), it captures
    a bounded window of recent telemetry — events, closed and open spans,
    the last-N gate transitions, counters — plus a caller-provided
    context snapshot (cycles, per-hart PKRU, gate depth, suspect
    allocation) and turns it into a self-contained JSON post-mortem when
    something dies: a gate-verify kill, an unrecovered SEGV, mitigator
    degradation, a chaos invariant failure.

    The recorder does nothing on the happy path: instrumentation sites
    call {!Ctx.dump}, which is a single load when no recorder is
    attached, and the failure paths that call it are already off the
    cycle-charged fast path. *)

type t

val create : ?path:string -> unit -> t
(** [path] writes each dump to that file (latest wins); the in-memory
    dump list keeps the latest 8. *)

val attach_sink : t -> Sink.t -> unit
(** Pins the sink whose rings dumps will capture; without an attachment,
    dumps read the sink attached to the machine's context at dump time. *)

val set_context : t -> (unit -> Util.Json.t) -> unit
(** Registers the machine-context provider (cycles, per-hart PKRU, gate
    depth, last fault, suspect allocation).  A provider that raises is
    recorded as such rather than masking the original failure. *)

val record :
  ?sink:Sink.t -> t -> reason:string -> details:(string * Util.Json.t) list -> Util.Json.t
(** Snapshots everything into a dump on this recorder and returns it.
    [sink] is the fallback when no sink is attached ({!attach_sink}). *)

val dumps : t -> Util.Json.t list
(** All retained dumps, oldest first. *)

val last : t -> Util.Json.t option
val dump_total : t -> int
(** Every dump ever recorded, including those evicted from the bounded
    list. *)

val render : Util.Json.t -> string
(** Renders a dump (as produced by {!record} or re-parsed from its file)
    into the human-readable incident report the [doctor] CLI prints:
    context, gate-tail balance, span timeline with causal nesting, the
    open chain at death, and the last raw events. *)
