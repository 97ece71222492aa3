(** A shared backing-page budget for pools that must contend for memory.

    Pools keep their own disjoint address reservations (the paper's
    no-migration invariant holds: budget pages are counts, not
    identities), but drawing a span first takes pages from the shared
    budget and freeing one gives them back.  A fleet hands every
    session's pkalloc the same budget so memory pressure is real across
    sessions.  Pure host-side accounting: no simulated cycles, no
    telemetry. *)

type t

val create : pages:int -> t
(** @raise Invalid_argument if [pages <= 0]. *)

val take : t -> int -> bool
(** [take t n] reserves [n] pages; [false] (and a counted denial) when
    fewer than [n] are available. *)

val give : t -> int -> unit
(** Returns [n] pages to the budget (clamped at [total]). *)

val total : t -> int

val min_available : t -> int
(** Low-water mark of the pages left in the budget — peak fleet-wide
    memory pressure. *)

val denials : t -> int
(** Failed reservations (each one surfaces as an allocator [None] /
    session [Out_of_memory]). *)
