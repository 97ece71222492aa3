(** Page protection bits (the classic mmap PROT_* triple).

    The threat model assumes a strict W^X policy, so {!validate} refuses
    writable-and-executable combinations. *)

type t = {
  read : bool;
  write : bool;
  execute : bool;
}

val none : t
val read_write : t

val validate : t -> (t, string) result
(** Rejects W^X violations (write && execute). *)
