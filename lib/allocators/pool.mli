(** A compartment page pool.

    Each compartment's allocator draws pages exclusively from its own pool;
    pools are disjoint reservations and pages are never migrated between
    them (paper §3.4: "pages are never migrated between the pools, in
    particular through mechanisms such as an allocator's page cache").  A
    pool is created by one large up-front reservation tagged with the
    compartment's protection key, relying on on-demand paging so unused
    pages cost nothing. *)

type t

val create :
  ?backing:Backing.t ->
  Sim.Machine.t ->
  base:int ->
  size:int ->
  pkey:Mpk.Pkey.t ->
  (t, string) result
(** Reserves [size] bytes at [base] tagged with [pkey].  With [backing],
    every span drawn also takes pages from the shared budget (and gives
    them back on free), so pools sharing one budget contend for memory;
    a denied take makes {!alloc_span} return [None]. *)

val alloc_span : t -> int -> int option
(** [alloc_span t npages] carves [npages] contiguous pages out of the pool,
    returning the base address; [None] when the pool is exhausted.  Freed
    spans are recycled first-fit before the bump frontier grows. *)

val free_span : t -> int -> int -> unit
(** [free_span t addr npages] returns a span for reuse {e within this pool
    only}.  [addr] must come from {!alloc_span}. *)

val contains : t -> int -> bool
(** Whether an address lies inside this pool's reservation. *)

val base : t -> int

val pages_in_use : t -> int
(** Pages currently handed out to the allocator. *)

val high_water_pages : t -> int
(** Peak of {!pages_in_use}. *)

val retire : t -> unit
(** Returns every outstanding page to the shared backing budget (no-op
    without one; idempotent).  For session teardown — the pool must not
    be used afterwards. *)
