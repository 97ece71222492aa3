(** The untrusted-pool allocator, modelled on libc (dl)malloc.

    A boundary-tag allocator: every chunk carries an 8-byte header and an
    8-byte footer holding [size | in_use]; free chunks additionally thread
    forward/backward free-list pointers through their payload.  All of this
    metadata lives {e in simulated memory}, so every bin walk, split and
    coalesce costs checked machine loads and stores — which is precisely
    why this allocator is slower than the jemalloc model, reproducing the
    paper's finding that the MU allocator ("the libc version of malloc")
    is the source of the alloc-configuration overhead (§5.3).

    Segments are page spans drawn from a single {!Pool.t} and are guarded
    by in-memory sentinels so coalescing never crosses a segment edge. *)

type t

val create : Sim.Machine.t -> Pool.t -> t

val alloc : t -> int -> int option
(** [alloc t size]: address of a block of at least [size] bytes, 16-byte
    payload alignment; [None] when the pool is exhausted.  [size] must be
    positive. *)

val free : t -> int -> unit
(** @raise Invalid_argument on a pointer this allocator does not own, on a
    double free, and on a corrupted boundary tag. *)

val usable_size : t -> int -> int option

val try_resize : t -> int -> int -> bool
(** [try_resize t addr new_size] attempts an in-place resize: shrinking
    splits off a remainder chunk; growing coalesces with the following
    chunk when it is free and large enough.  Returns whether the block at
    [addr] now holds at least [new_size] usable bytes. *)

val stats : t -> Alloc_stats.t

val check_heap : t -> (unit, string) result
(** Walks every segment validating boundary tags, footers, sentinels and
    free-list membership — used by the property tests. *)
