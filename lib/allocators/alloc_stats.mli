(** Allocation counters shared by all allocator implementations; the
    benchmark harness uses them to report %MU (fraction of heap traffic
    served from untrusted memory, Table 1), and the heap census reads the
    live/peak views for its per-pool gauges. *)

type t = {
  mutable allocs : int;
  mutable frees : int;
  mutable bytes_allocated : int;
  mutable bytes_freed : int;
  mutable peak_live : int;  (** high-water mark of {!live_bytes} *)
}

val create : unit -> t
val live_bytes : t -> int

val live_objects : t -> int
(** [allocs - frees]: objects currently live. *)

val peak_live_bytes : t -> int
(** High-water mark of {!live_bytes}, maintained on every allocation. *)

val record_alloc : t -> int -> unit
val record_free : t -> int -> unit
