(** The continuous heap census: a cycle-driven periodic walk over
    allocator state.

    Every [every] simulated cycles (ticked from the machine's charge
    path) the census calls its provider ({!set_provider}) and stores the
    returned {!snapshot} — per-pool (MT/MU) live bytes, object counts,
    fragmentation and high-water marks, per-AllocId live bytes, and a
    log₂ histogram of live-object ages — in a bounded ring.  Each
    snapshot also records a zero-duration [census] span on the
    machine's sink (span recording only: the event trace is untouched).

    The census never charges simulated cycles and the disabled path is
    one load and one branch per charge, so censused and uncensused runs
    retire bit-identical cycle counts and event traces — the same
    architectural-invisibility discipline as the sink, sampler, spans and
    software TLB. *)

type pool_stats = {
  cp_pool : string;  (** ["mt"] or ["mu"] *)
  cp_live_bytes : int;
  cp_live_objects : int;
  cp_allocs : int;
  cp_frees : int;
  cp_bytes_allocated : int;
  cp_bytes_freed : int;
  cp_peak_live_bytes : int;  (** high-water mark of live bytes *)
  cp_pages_in_use : int;
  cp_high_water_pages : int;
  cp_fragmentation : float;
      (** [1 - live_bytes/(pages_in_use * page_size)]; 0 for an empty
          pool *)
}

type site_stats = {
  cs_site : string;  (** printed AllocId *)
  cs_pool : string;  (** ["mt"] or ["mu"] *)
  cs_live_bytes : int;
  cs_live_objects : int;
}

type snapshot = {
  at_cycle : int;
  pools : pool_stats list;
  sites : site_stats list;  (** sorted by [(site, pool)] *)
  ages : Histogram.t;  (** log₂ histogram of live-object ages, in cycles *)
}

type t

val create : every:int -> unit -> t
(** Keeps the last 64 snapshots.
    @raise Invalid_argument when [every <= 0]. *)

val every : t -> int

val set_provider : t -> (unit -> snapshot) -> unit
(** Registers the snapshot builder over live allocator state.  Set by the
    layer that owns pkalloc and the live-object table; must not charge
    simulated cycles (pure OCaml reads only).  Installation on a machine
    is {!Ctx.with_census}. *)

(* {2 Recording} *)

val tick : t -> sink:Sink.t option -> cpu:int -> int -> unit
(** Advances the cycle credit by [n]; takes one snapshot when a period
    boundary is crossed (a single large charge spanning several periods
    still takes one snapshot — allocator state is identical for all of
    them — with leftover credit preserving the cadence).  Each snapshot
    records a [census] span instant on [sink], if any. *)

(* {2 Reading} *)

val taken_total : t -> int
val snapshots : t -> snapshot list
(** Retained snapshots, oldest first. *)

val latest : t -> snapshot option

val snapshot_json : snapshot -> Util.Json.t
val digest_json : t -> Util.Json.t
(** Totals plus the latest snapshot — the [census] digest carried by
    report and bench artifacts. *)
