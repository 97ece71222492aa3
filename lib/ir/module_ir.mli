(** A compilation unit: crates, functions and the indirect-call table.

    Crates model Rust crates / C libraries: the unit of the developer's
    trust annotation.  The function table gives every address-taken
    function a small integer "address" used by [Func_addr] /
    [Call_indirect], standing in for real code addresses. *)

type crate = {
  crate_name : string;
  mutable untrusted : bool; (* the developer's annotation *)
}

type t

val create : unit -> t

val declare_crate : t -> string -> unit
(** Idempotent. *)

val crate : t -> string -> crate
(** @raise Not_found for an undeclared crate. *)

val mark_untrusted : t -> string -> unit
(** The developer annotation: tag a crate as an untrusted interface.
    @raise Not_found for an undeclared crate. *)

val is_untrusted_fn : t -> Func.t -> bool
(** Whether a function belongs to an untrusted crate. *)

val add_func : t -> Func.t -> unit
(** Declares the owning crate if needed.
    @raise Invalid_argument on duplicate name. *)

val find_func : t -> string -> Func.t option

val func : t -> string -> Func.t
(** @raise Invalid_argument on unknown name. *)

val iter_funcs : t -> (Func.t -> unit) -> unit
val fold_funcs : t -> ('a -> Func.t -> 'a) -> 'a -> 'a

val func_index : t -> string -> int
(** Index of a function in the indirect-call table, assigning one on first
    use and marking the function address-taken.
    @raise Invalid_argument on unknown name. *)

val func_table_entry : t -> int -> string option
(** Resolve an indirect-call target. *)

val find_index : t -> string -> int option
(** Table index previously assigned to a function, without assigning one. *)

val retarget_entry : t -> index:int -> string -> unit
(** Point a function-table slot at a different function (the gate pass
    retargets address-taken T functions to their entry wrappers). *)

val copy : t -> t
(** Deep copy: crates, functions and the table.  Passes run on copies so a
    single source module can be compiled into several configurations. *)

val pp : Format.formatter -> t -> unit
