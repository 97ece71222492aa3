(** The telemetry sink: bounded event trace + streaming counters and
    histograms.  A sink is attached to one machine's {!Ctx} slot, so
    disabled runs pay one pointer load per instrumentation site.

    Instrumented code follows this pattern — the match is the whole cost
    when telemetry is off, and the event payload is only constructed in
    the [Some] arm:

    {[
      match ctx.Telemetry.Ctx.sink with
      | None -> ()
      | Some sink -> Telemetry.Sink.emit sink ~ts ~cpu (Telemetry.Event.Wrpkru { value })
    ]} *)

type t

val create :
  ?capacity:int -> ?span_capacity:int -> ?record_spans:bool -> ?gate_tail:int -> unit -> t
(** [capacity] (default 65536) bounds the trace ring; counters and
    histograms are unbounded-precision regardless.  [gate_tail] (default
    256) is the dedicated last-N ring of gate transitions kept for the
    flight recorder.  [record_spans] (default true) switches the span
    layer off entirely:
    span calls become no-ops and the event trace is bit-identical to a
    span-recording sink's. *)

(* {2 Recording} *)

val emit : t -> ts:int -> cpu:int -> Event.t -> unit
(** Appends to the ring (dropping oldest-first at capacity, counted under
    the ["trace.dropped"] counter) and bumps the event-kind counter.
    Gate transitions are additionally copied into the bounded gate
    tail. *)

val observe : t -> string -> int -> unit
(** Records a sample into the named histogram, creating it on first use. *)

val incr : ?by:int -> t -> string -> unit
(** Bumps a named counter without producing a trace record. *)

(* {2 Reading} *)

val count : t -> string -> int
val events_total : t -> int
(** Every event ever emitted, including those the ring has dropped. *)

val events : t -> Event.record list
(** Trace contents, oldest first. *)

val dropped : t -> int
val histogram : t -> string -> Histogram.t option
val counters : t -> (string * int) list
val histograms : t -> (string * Histogram.t) list

val gate_transitions : t -> int
(** [count "gate_enter" + count "gate_exit"] — must equal
    {!Runtime.Gate.transitions} summed over the traced run's gates. *)

val gate_tail : t -> Event.record list
(** The last-N gate transitions (oldest first), kept separately from the
    main ring so flight dumps retain the recent crossing history even
    when allocation events dominate the trace. *)

(* {2 Spans} *)

val spans : t -> Span.t

val span_enter : t -> ts:int -> cpu:int -> kind:Span.kind -> string -> int
(** Opens a causal span (see {!Span.enter}); returns 0 when span
    recording is disabled. *)

val span_exit : t -> ts:int -> cpu:int -> ?id:int -> unit -> unit
(** Closes the innermost open span on the hart, or — with the [id]
    returned by {!span_enter} — that specific span, closing abandoned
    children.  [~id:0] (the disabled-spans sentinel) closes the
    innermost. *)

val span_instant : t -> ts:int -> cpu:int -> kind:Span.kind -> string -> unit
(** A zero-duration span ({!Span.instant}). *)
