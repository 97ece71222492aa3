(** A metrics registry in the Prometheus data model.

    Families are named once (with a type and optional help text) and hold
    one cell per label set: monotone counters, gauges, log₂ histograms
    ({!Histogram}) and cycle-windowed series — the last bucketing a value
    stream into per-K-cycles windows so a benchmark run can be plotted as
    a trajectory rather than a single aggregate.

    The registry is passive: nothing on the simulator's hot path writes
    into it.  Exporters fold a {!Sink} snapshot (plus attribution and
    sampler digests) into a registry and render it with {!expose}, whose
    output is the Prometheus text exposition format (0.0.4). *)

type t

type labels = (string * string) list

val create : unit -> t

(* {2 Cells}

   Each accessor registers the family on first use and returns the cell
   for the given label set, creating it when absent.
   @raise Invalid_argument if the name is not a valid Prometheus metric
   name ([[a-zA-Z_:][a-zA-Z0-9_:]*]), a label name is not a valid
   Prometheus label name ([[a-zA-Z_][a-zA-Z0-9_]*], no leading [__]),
   or the family was previously registered with a different type.
   Label {e values} are unrestricted — backslashes, quotes and newlines
   are escaped at exposition time per the 0.0.4 text format. *)

val counter : t -> ?help:string -> ?labels:labels -> string -> int ref
val incr : ?by:int -> int ref -> unit

val gauge : t -> ?help:string -> ?labels:labels -> string -> float ref
val set : float ref -> float -> unit

val attach_histogram : t -> ?help:string -> string -> Histogram.t -> unit
(** Registers an already-populated histogram (e.g. one owned by a sink)
    under the family without copying it. *)

type series

val series : t -> ?help:string -> window:int -> string -> series
(** A windowed time series: [window] simulated cycles per bucket.
    @raise Invalid_argument when [window <= 0]. *)

val observe_series : series -> cycle:int -> float -> unit
(** Adds [v] into the bucket containing [cycle].
    @raise Invalid_argument on a negative cycle. *)

(* {2 Export} *)

val expose : t -> string
(** Prometheus text format: [# HELP] / [# TYPE] headers, one sample line
    per cell (histograms expand to cumulative [_bucket]/[_sum]/[_count];
    series render as gauges with a [window_start] label).  Families and
    cells are emitted in sorted order so output is deterministic.  Label
    values escape backslash, double-quote and newline; help text escapes
    backslash and newline; non-finite gauge values render as [NaN] /
    [+Inf] / [-Inf] per the spec. *)
