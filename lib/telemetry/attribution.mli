(** Attribution analysis over a sink's event trace.

    PKRU-Safe's pipeline hinges on knowing {e which} allocation sites and
    gates are responsible for cross-boundary traffic.  This module folds a
    {!Sink} snapshot into two views:

    - a {b site heat map}: per-{!Runtime.Alloc_id} (as labelled by the
      instrumented allocator surface) allocation/free counts, allocated and
      live bytes, the pool (MT / MU) the site was served from, and MPK
      faults landing inside the site's live allocations;
    - a {b compartment flow matrix}: T→U and U→T gate crossings, the
      deepest gate nesting, and cycles spent per compartment — recovered
      from gate-event timestamps.

    All of it is post-processing over the bounded trace ring: it costs
    nothing during the measured run and degrades gracefully (counts cover
    the retained window) when the ring dropped events. *)

type t

type site = {
  site : string;
  mutable allocs : int;
  mutable frees : int;
  mutable bytes_allocated : int;
  mutable live_bytes : int;
  mutable peak_live_bytes : int;
  mutable mt_bytes : int;
  mutable mu_bytes : int;
  mutable mpk_faults : int;
}

type flow = {
  mutable t_to_u : int;
  mutable u_to_t : int;
  mutable crossings : int;
  mutable max_nesting : int;
  mutable cycles_trusted : int;
  mutable cycles_untrusted : int;
  mutable allocs_mt : int;
  mutable allocs_mu : int;
  mutable mpk_faults : int;
}

val of_sink : ?total_cycles:int -> Sink.t -> t
(** Folds the sink's retained events.  Execution is assumed to start in
    the trusted compartment at cycle 0 (the runner resets counters before
    the timed region).  When [total_cycles] — the measured run length — is
    given, the tail after the last event is charged to the compartment
    then in force, so per-compartment cycles sum to the run length. *)

val sites : t -> site list
(** Descending by [bytes_allocated], ties broken by name. *)

val site_stats : t -> string -> site option
val flow : t -> flow

val unmatched_frees : t -> int
(** Frees whose allocation fell outside the retained trace window. *)

val total_cycles : t -> int
(** [cycles_trusted + cycles_untrusted]. *)

val pool_of_site : site -> string
(** ["MT"], ["MU"] or ["MT+MU"]. *)

(* {2 Exports} *)

val site_heat_json : ?limit:int -> t -> Util.Json.t
(** [limit] keeps only the hottest N sites (the digest form bench results
    embed); [sites_total] always reports the full count. *)

val flow_json : t -> Util.Json.t
val to_json : ?site_limit:int -> t -> Util.Json.t

val report : ?site_limit:int -> t -> string
(** Flow matrix + site heat as aligned text tables. *)
