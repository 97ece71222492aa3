(** Compartments and their PKRU views.

    PKRU-Safe partitions the program into exactly two compartments:
    the trusted compartment T gets an unrestricted view of memory (its own
    MT plus the shared MU), while the untrusted compartment U can only
    access MU (key 0 plus anything explicitly shared).  MT carries the
    one trusted key, {!Mpk.Pkey.trusted}. *)

type t =
  | Trusted
  | Untrusted

val to_string : t -> string

val trusted_view : Mpk.Pkru.t
(** PKRU for code running in T: every key enabled. *)

val untrusted_view : Mpk.Pkru.t
(** PKRU for code running in U: access to the trusted key disabled (all
    non-default keys are disabled, so additional future compartments stay
    unreachable too). *)

val of_pkru : Mpk.Pkru.t -> t
(** Classifies a PKRU value: [Trusted] iff it can access the trusted
    key. *)
