(** Memory protection keys.

    Intel MPK provides 16 protection keys; every user page carries one in
    its page-table entry.  The simulator reserves key 0 for conventional
    memory (always accessible, matching the kernel default) and uses the
    others for compartment pools. *)

type t = private int

val count : int
(** Number of architectural keys (16). *)

val of_int : int -> t
(** [of_int k] validates [0 <= k < count].
    @raise Invalid_argument otherwise. *)

val to_int : t -> int

val default : t
(** Key 0: the kernel assigns it to all pages unless told otherwise. *)

val trusted : t
(** Key 1: the key pkalloc tags the trusted pool MT with.  Every other
    page is MU's, on key 0. *)

val equal : t -> t -> bool
