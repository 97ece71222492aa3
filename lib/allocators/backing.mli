(** A shared backing-page budget for pools that must contend for memory.

    Pools keep their own disjoint address reservations (the paper's
    no-migration invariant holds: budget pages are counts, not
    identities), but drawing a span first takes pages from the shared
    budget and freeing one gives them back.  A fleet hands every
    session's pkalloc the same budget so memory pressure is real across
    sessions.  Pure host-side accounting: no simulated cycles, no
    telemetry.

    A {e recorder} stands in for the shared budget while one session runs
    apart from the others: it logs the session's takes and gives, and
    {!replay} applies them to the shared budget afterwards, in the order
    the fleet's schedule serves them. *)

type t

val create : pages:int -> t
(** A shared budget.
    @raise Invalid_argument if [pages <= 0]. *)

val recorder : refuse:int list -> t
(** A session's private log.  It grants every take except those whose
    ordinal (the count of events before it, from 0) is in [refuse]; a
    refused take counts a denial. *)

val take : t -> int -> bool
(** [take t n] reserves [n] pages; [false] (and a counted denial) when
    fewer than [n] are available, or when a recorder refuses it. *)

val give : t -> int -> unit
(** Returns [n] pages to the budget (clamped at [total]). *)

val recorded : t -> int
(** A recorder's event count so far: takes, refused takes and gives.
    @raise Invalid_argument on a shared budget. *)

val events : t -> int array
(** A recorder's events, oldest first, as opaque codes for {!replay}:
    the recorder's own buffer, whose first {!recorded} entries are the
    events so far (it is not copied; later events may land in it).
    @raise Invalid_argument on a shared budget. *)

val replay : t -> int array -> from:int -> upto:int -> int option
(** [replay t events ~from ~upto] applies [events.(from)] ...
    [events.(upto - 1)] (from a recorder's {!events}) to the shared
    budget [t] in order.  [None] when all were applied; [Some i] when
    [t] refused the take at [i] (a counted denial) that the recorder
    granted, in which case the events after [i] are not applied.  The
    index of an event is the ordinal a recorder's [refuse] names.
    @raise Invalid_argument on a recorder. *)

val total : t -> int

val min_available : t -> int
(** Low-water mark of the pages left in the budget — peak fleet-wide
    memory pressure. *)

val denials : t -> int
(** Failed reservations (each one surfaces as an allocator [None] /
    session [Out_of_memory]). *)
