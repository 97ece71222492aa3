(** jemalloc-style size classes for the trusted-pool allocator.

    Small requests are rounded up to one of a fixed ladder of classes; each
    class is served from "runs" (spans of pages segregated by class).
    Requests above {!max_small} are large and served as whole page spans. *)

type t = private int
(** Index into the class ladder. *)

val max_small : int
(** Largest size (bytes) treated as a small allocation. *)

val count : int
(** Number of small classes. *)

val small_class : int -> t
(** [small_class n] is the smallest class that fits [n], for
    [1 <= n <= max_small]; larger requests are large allocations. *)

val bytes : t -> int
(** Slot size of the class in bytes. *)

val run_pages : t -> int
(** Pages per run for this class, chosen to keep slack low. *)

val slots_per_run : t -> int
(** Number of objects a run of this class holds. *)
