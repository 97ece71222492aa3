(** The trusted-pool allocator, modelled on jemalloc.

    Small allocations are served from runs: page spans dedicated to a
    single size class with a slot bitmap.  Large allocations are whole page
    spans.  All pages come from one {!Pool.t} and return to it, never to
    another pool — this is the property pkalloc depends on.

    Bookkeeping lives in OCaml (conceptually inside the pool's own pages;
    we account for it via {!metadata_bytes}), and operations charge a
    calibrated cycle cost on the machine, making this the "fast" allocator
    of the pair, as jemalloc is in the paper. *)

type t

val create : Sim.Machine.t -> Pool.t -> t

val alloc : t -> int -> int option
(** [alloc t size] returns the address of a fresh block of at least [size]
    bytes (8-aligned), or [None] when the pool is exhausted.  [size] must
    be positive. *)

val free : t -> int -> unit
(** [free t addr] releases a block previously returned by [alloc].
    @raise Invalid_argument on a pointer this allocator does not own. *)

val usable_size : t -> int -> int option
(** Size of the block holding [addr] ([None] if not owned). *)

val try_resize : t -> int -> int -> bool
(** In-place resize: succeeds iff the new size still fits the block's size
    class (small) or page span (large) — jemalloc never migrates a slot in
    place. *)

val owns : t -> int -> bool

val stats : t -> Alloc_stats.t

val metadata_bytes : t -> int
(** Bytes of allocator bookkeeping attributed to the pool's compartment. *)

val live_runs : t -> int
(** Number of pages currently owned by small-class runs (for tests). *)

val check_index : t -> (unit, string) result
(** Validates the host-side page indices against the runs and large
    blocks they name — every mapped page lies in a live run's span, the
    mapped-page count matches, each run's slot bitmap agrees with its
    free count, and no large block overlaps a run.  For the property
    tests. *)
