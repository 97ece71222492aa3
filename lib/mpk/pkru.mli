(** The PKRU register.

    PKRU holds two bits per protection key: AD (access disable, bit [2k])
    and WD (write disable, bit [2k+1]).  A load from a page tagged with key
    [k] is permitted iff AD is clear; a store additionally requires WD
    clear.  Key 0's rights are typically left enabled, matching Linux,
    which never disables key 0 for regular processes.

    Values are immutable ints so they can be compared and stored in the
    per-thread compartment stack exactly as the paper's call gates do. *)

type t = private int

type rights =
  | Enable          (** read and write allowed *)
  | Disable_write   (** read-only: WD set *)
  | Disable_access  (** no access: AD set *)

val all_enabled : t
(** PKRU of 0: every key readable and writable. *)

val all_disabled_except : Pkey.t list -> t
(** [all_disabled_except keys] builds a PKRU denying access to every key
    except those in [keys] (and key 0, which stays enabled as on Linux). *)

val set_rights : t -> Pkey.t -> rights -> t
(** [set_rights pkru key r] returns [pkru] with [key]'s two bits replaced. *)

val rights : t -> Pkey.t -> rights
(** [rights pkru key] decodes the two bits for [key]. *)

val can_read : t -> Pkey.t -> bool
(** AD clear for the key. *)

val can_write : t -> Pkey.t -> bool
(** AD and WD both clear for the key. *)

val of_int : int -> t
(** Raw 32-bit constructor, for WRPKRU modelling.
    @raise Invalid_argument if out of unsigned 32-bit range. *)

val to_int : t -> int
val equal : t -> t -> bool
