(** The provenance-tracking runtime's live-object table (paper Fig. 2).

    Every allocation from MT during a profiling run is recorded here with
    its address, size and AllocId; the fault handler looks up the faulting
    address to find which allocation site produced the object.  Tracking
    follows reallocation ("reallocation calls associate the returned memory
    object with the original object's AllocId") and stops at deallocation. *)

type record = {
  addr : int;
  size : int;
  alloc_id : Alloc_id.t;
}

type t

val create : unit -> t

val on_alloc : t -> addr:int -> size:int -> alloc_id:Alloc_id.t -> unit

val on_realloc : t -> old_addr:int -> new_addr:int -> new_size:int -> unit
(** Re-associates the new object with the old object's AllocId.  A no-op
    when [old_addr] is untracked (e.g. an MU object). *)

val on_dealloc : t -> addr:int -> unit
(** Stops tracking; no-op when untracked. *)

val lookup : t -> int -> record option
(** [lookup t a]: the record of the live object whose range contains [a]
    (not just its base address — the faulting access may be anywhere
    inside the object). *)

val find : t -> int -> record
(** {!lookup} without the option: {!missing} when no live object
    contains the address (the fault path allocates nothing). *)

val missing : record
(** [find]'s answer for an untracked address (compare with [==]). *)

val live_count : t -> int

val fold : (record -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over every live record in ascending base-address order
    (deterministic) — the heap census aggregates per-site live bytes and
    object counts this way. *)

val iter : (record -> unit) -> t -> unit
(** {!fold} without an accumulator. *)
