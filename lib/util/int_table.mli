(** Mutable hash tables keyed by [int].

    The allocation, free, fault-lookup and DOM-handle paths key their
    host-side indices by addresses, page numbers and node ids.  A
    polymorphic [Hashtbl] hashes such a key through [caml_hash] and
    compares it through [caml_compare], both C calls; this table mixes
    the integer inline, compares keys as integers, and allocates nothing
    per insertion (open addressing over flat arrays).

    {!fold} visits bindings in slot order, which depends only on the
    sequence of operations (deterministic) but is not sorted; callers
    that need an order use {!sorted_keys}. *)

type 'a t

val create : dummy:'a -> int -> 'a t
(** [create ~dummy n]: an empty table sized for about [n] bindings (it
    grows as needed).  [dummy] fills free value slots and is what {!get}
    returns for an absent key.  Keep [n] at most 128 when [dummy] is a
    block allocated just before: [Array.make] of more than 256 words
    with a young initial value forces a minor collection. *)

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** The value bound to a key, or the table's [dummy] when there is none
    (test with [==]). *)

val find_opt : 'a t -> int -> 'a option

val replace : 'a t -> int -> 'a -> unit
(** Binds the key, replacing any previous binding.
    @raise Invalid_argument on [min_int], which marks free slots. *)

val remove : 'a t -> int -> unit
(** No-op when the key is absent. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** The table must not be modified during the fold. *)

val sorted_keys : 'a t -> int array
(** Every key, ascending. *)
