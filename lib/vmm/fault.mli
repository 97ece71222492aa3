(** Fault descriptors raised by the simulated MMU.

    These play the role of the hardware page-fault error code that the
    kernel turns into a SIGSEGV with [si_code] distinguishing an unmapped
    address ([SEGV_MAPERR]), a protection violation ([SEGV_ACCERR]) and an
    MPK violation ([SEGV_PKUERR]). *)

type access =
  | Read
  | Write
  | Execute

type kind =
  | Not_mapped                    (** SEGV_MAPERR: no page at the address *)
  | Prot_violation                (** SEGV_ACCERR: page protection denied *)
  | Pkey_violation of Mpk.Pkey.t  (** SEGV_PKUERR: PKRU denied the key *)

type t = {
  addr : int;
  access : access;
  kind : kind;
}

exception Unhandled of t
(** Raised when no registered handler services the fault; the simulated
    process dies, matching default SIGSEGV disposition. *)

val to_string : t -> string
