(** Word-at-a-time bitmap helpers for the allocator models' host-side
    indices. *)

val lowest_set : int -> int
(** Index of the lowest set bit of a non-zero word (bits 0-62). *)
