(** Sink exporters: compact JSON, Chrome [trace_event] JSON, ASCII summary. *)

val to_json : Sink.t -> Util.Json.t
(** Full snapshot: counters, histogram summaries, the trace, and the
    span store (digest + closed + open records). *)

val chrome_trace : Sink.t -> Util.Json.t
(** Chrome trace_event format, loadable in [chrome://tracing] or Perfetto
    ([ui.perfetto.dev]).  Gate enters/exits become nested duration slices
    (one [ph:"B"] or [ph:"E"] record per transition, so the slice-record
    count equals {!Sink.gate_transitions}); every other event is an
    instant.  Causal spans ride on a separate track ([pid 1]): closed
    spans as [ph:"X"] complete slices with explicit [dur], still-open
    spans as dangling [ph:"B"] slices. *)

val gate_latencies : Sink.t -> float list
(** Gate round-trip times (cycles) recovered by pairing enter/exit records
    in the trace, per hart, in completion order. *)

val summary_json : ?census:Census.t -> Sink.t -> Util.Json.t
(** Counters, histogram summaries, exact gate round-trip percentiles,
    the span digest and (when given) the heap-census digest — everything
    except the raw event trace. *)

val summary : Sink.t -> string
(** Human-readable overview: event totals, counter table, histogram
    percentile table, exact gate round-trip percentiles, and a per-name
    span table when any spans were recorded. *)

val prometheus :
  ?attribution:Attribution.t ->
  ?sampler:Sampler.t ->
  ?census:Census.t ->
  Sink.t ->
  string
(** The Prometheus text format ([Metrics.expose]) of a sink snapshot
    folded into a {!Metrics} registry: event-kind counters
    ([pkru_events_total{kind=...}]), the sink's histograms, windowed
    gate-crossing / allocation series (1/50th of the trace span per
    bucket, at least 1000 cycles), plus labelled site-heat and
    flow-matrix metrics when [attribution] is given, per-stack sample
    counters when [sampler] is, and — when [census] is — the
    [pkru_census_*] / [pkru_pool_*] families (per-pool live bytes /
    objects / fragmentation / page high-water gauges, per-site live
    views, snapshot totals and the object-age histogram, all from the
    latest snapshot).

    Software-TLB effectiveness is always exposed as
    [pkru_tlb_hits_total] / [pkru_tlb_misses_total] /
    [pkru_tlb_flushes_total] (zeroes included), from the sink counters
    ["tlb_hit"] / ["tlb_miss"] / ["tlb_flush"] that [Workloads.Runner]
    injects after a timed run; a flush is one whole-TLB flush for a
    mapping change, never for a PKRU write. *)
