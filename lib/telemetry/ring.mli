(** A bounded ring buffer that drops oldest-first at capacity.

    The trace buffer must never grow with run length — a multi-second
    simulated run emits millions of events — so the ring keeps the most
    recent [capacity] entries and counts what it discarded. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity <= 0]. *)

val push : 'a t -> 'a -> unit
(** O(1); evicts the oldest element when full. *)

val length : 'a t -> int
val capacity : 'a t -> int

val dropped : 'a t -> int
(** Elements evicted so far (total pushes = length + dropped). *)

val to_list : 'a t -> 'a list
(** Live elements, oldest first. *)

val iter : 'a t -> ('a -> unit) -> unit
