(** The kernel's protection-key allocator (pkey_alloc / pkey_free).

    x86 MPK exposes only 16 keys and Linux hands them out per process;
    key 0 is the implicit default for all memory and can never be
    allocated or freed.  Running out of keys is a real constraint —
    related work (libmpk) builds key virtualisation on top of exactly
    this interface — so the simulator models the syscalls faithfully,
    including the EINVAL/ENOSPC failure modes. *)

type t

val create : unit -> t

val pkey_alloc : t -> (Mpk.Pkey.t, string) result
(** Allocates the lowest free key. [Error "ENOSPC"] when all 15
    allocatable keys are taken. *)

val reserve : t -> Mpk.Pkey.t -> (unit, string) result
(** Claims a specific key (what a runtime that hard-codes its key layout
    effectively does).  [Error "EBUSY"] if already allocated, [Error
    "EINVAL"] for key 0. *)

val pkey_free : t -> Mpk.Pkey.t -> (unit, string) result
(** [Error "EINVAL"] when the key is not currently allocated (or is
    key 0). *)
