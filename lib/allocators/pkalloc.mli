(** pkalloc: the compartment-aware split allocator (paper §4.4).

    Wraps two heap allocators over two disjoint page pools:
    {ul
    {- [MT], the trusted pool, reserved at startup and tagged with the
       trusted protection key, served by the jemalloc model;}
    {- [MU], the untrusted pool, tagged with the default key (accessible
       from every compartment), served by the libc-malloc model.}}

    This is the extended GlobalAlloc surface: [alloc_trusted] is
    [__rust_alloc], [alloc_untrusted] is [__rust_untrusted_alloc], and
    [realloc] always reallocates from the pool the base pointer originated
    in, so an object's compartment never changes across reallocation —
    the property the provenance-tracking runtime depends on (§4.2).

    The [mu_backend] knob reproduces the paper's §5.3 experiment of
    swapping the MU allocator for the fast one, which removed the
    alloc-configuration overhead. *)

type mu_backend =
  | Mu_dlmalloc  (** default: libc-style allocator, as in the paper *)
  | Mu_jemalloc  (** ablation: fast allocator for MU *)

type t

val create :
  ?backing:Backing.t ->
  ?mu_backend:mu_backend ->
  Sim.Machine.t ->
  (t, string) result
(** Reserves both pools on the machine's page table (MT on
    {!Mpk.Pkey.trusted}) and builds the two allocators.  With [backing],
    both pools draw pages from that shared budget (fleet memory
    contention): exhaustion surfaces as allocation [None]. *)

val retire : t -> unit
(** Returns both pools' outstanding pages to the shared backing budget
    (no-op without one; idempotent).  Session teardown only. *)

val machine : t -> Sim.Machine.t

val alloc_trusted : ?site:string -> t -> int -> int option
(** [__rust_alloc]: allocate from MT.  [site] is the printed AllocId used
    to tag the telemetry event when a sink is installed. *)

val alloc_untrusted : ?site:string -> t -> int -> int option
(** [__rust_untrusted_alloc]: allocate from MU. *)

val dealloc : t -> int -> unit
(** [__rust_dealloc]: dispatches on the pool owning the pointer.
    @raise Invalid_argument on a foreign pointer. *)

val realloc : t -> int -> int -> int option
(** [realloc t addr new_size] grows/shrinks in the {e same} pool, copying
    the payload through checked machine accesses.  [None] on exhaustion.
    If the fresh block is allocated but the payload copy faults, the fresh
    block is freed before returning [None] — the original allocation stays
    live and no memory leaks (realloc(3) contract). *)

val quarantine_site : t -> string -> unit
(** Record an allocation site (printed AllocId) in the site-override
    table.  The runtime redirects *future* MT allocations from quarantined
    sites to MU; objects already allocated keep their pool, so the
    provenance invariant (an object's compartment never changes) holds. *)

val site_quarantined : t -> string -> bool
val quarantined_count : t -> int

val quarantine_generation : t -> int
(** Changes whenever a site is newly quarantined, so a caller may cache
    {!site_quarantined} answers until it moves. *)

val quarantined_sites : t -> string list
(** Sorted list of quarantined sites (stable output for reports). *)

val fail_nth_alloc : t -> [ `Trusted | `Untrusted ] -> int -> unit
(** Fail-point for the chaos harness: arm the pool so its [n]th upcoming
    allocation attempt ([1] = the next one) reports exhaustion ([None])
    exactly once, then disarm.  [0] disarms immediately.
    @raise Invalid_argument on negative [n]. *)

val pool_of_addr : t -> int -> [ `Trusted | `Untrusted ] option
(** Which compartment's pool an address belongs to (reservation-range
    test, usable on any address including the secret page). *)

val trusted_pool : t -> Pool.t
val untrusted_pool : t -> Pool.t
val trusted_stats : t -> Alloc_stats.t
val untrusted_stats : t -> Alloc_stats.t
