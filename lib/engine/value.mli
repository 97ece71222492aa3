(** MiniJS values and the engine heap.

    The engine is the untrusted compartment's workload (the SpiderMonkey
    stand-in), so its data lives in simulated memory allocated with U's own
    malloc (always MU):
    {ul
    {- strings are immutable byte buffers in machine memory;}
    {- arrays are growable buffers of 64-bit NaN-boxed slots in machine
       memory — exactly the layout real JS engines use — so every element
       access is a checked load/store;}
    {- objects keep a property map host-side (charged cycles) plus a small
       machine-resident header, standing in for the object's slot
       storage.}}

    Strings created by the {e browser} (trusted code) can be wrapped
    directly with {!of_foreign_buffer}: the engine then reads trusted-pool
    bytes, which is precisely the cross-compartment data flow the profiler
    must discover. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of str
  | Arr of arr
  | Obj of obj
  | Fun of int (* closure id, owned by the evaluator *)
  | Host of string (* named host/builtin function *)
  | Handle of int (* opaque handle minted by the embedder (e.g. DOM node) *)

and str = {
  s_addr : int;
  s_len : int;
  s_owned : bool; (** engine-owned buffer (GC may free) vs foreign *)
}

and arr = {
  mutable a_buf : int; (* machine address of the slot buffer *)
  mutable a_cap : int; (* slots *)
  mutable a_len : int;
}

and obj = {
  o_id : int;
  o_addr : int; (* machine-resident header *)
  mutable o_shape : shape;
  mutable o_slots : t array;
}

and shape = {
  sh_id : int;
  sh_fields : (string, int) Hashtbl.t; (* name -> slot index *)
  sh_names : string array; (* slot index -> name, insertion order *)
  sh_count : int;
  mutable sh_transitions : (string * shape) list;
}
(** Hidden classes: objects that add the same properties in the same order
    share a shape, so a property is a (shape id, slot index) pair — the
    structure inline caches key on.  Adding a new property follows (or
    mints) a transition to a successor shape; in-place updates never
    change the shape. *)

type heap

val create_heap : Pkru_safe.Env.t -> heap
val env : heap -> Pkru_safe.Env.t

(* {2 Strings} *)

val str_of_string : heap -> string -> t
(** Copies an OCaml string into fresh MU memory. *)

val string_of_str : heap -> str -> string
(** Reads the bytes back out through checked loads. *)

val of_foreign_buffer : addr:int -> len:int -> t
(** Wraps a buffer owned by someone else (e.g. the browser) as an engine
    string without copying — the paper's shared-pointer data flow. *)

val str_get : heap -> str -> int -> int
(** Byte at index (checked load). @raise Invalid_argument out of range. *)

val str_concat : heap -> str -> str -> t
val str_sub : heap -> str -> int -> int -> t
val str_index_of : heap -> str -> str -> int
(** Index of first occurrence, or -1. *)

(* {2 Arrays} *)

val arr_make : heap -> int -> t
(** Fresh array of [n] nulls. *)

val arr_get : heap -> arr -> int -> t
(** @raise Invalid_argument out of range. *)

val arr_set : heap -> arr -> int -> t -> unit
val arr_push : heap -> arr -> t -> unit
val arr_pop : heap -> arr -> t

(* {2 Objects} *)

val obj_make : heap -> t
val obj_get : heap -> obj -> string -> t
(** [Null] for a missing property. *)

val obj_set : heap -> obj -> string -> t -> unit

(* {2 Shape/slot access for inline caches}

   A caller that has validated the receiver's shape id may address slots
   directly.  The charged variants charge exactly [prop_cost], like the
   name-keyed path, so an IC hit is architecturally invisible. *)

val obj_shape_id : obj -> int
val obj_slot_index : obj -> string -> int option
(** Host-side lookup in the shape's field table; charges nothing. *)

val obj_get_slot : heap -> obj -> int -> t
val obj_set_slot : heap -> obj -> int -> t -> unit
(** Slot store for an {e existing} property (never transitions). *)

val obj_iter : (string -> t -> unit) -> obj -> unit
(** Iterate properties in insertion (slot) order. *)

(* {2 Misc} *)

val truthy : t -> bool
val type_name : t -> string

val to_display_string : heap -> t -> string
(** Human-readable rendering (numbers, strings, nested arrays). *)

val equals : heap -> t -> t -> bool
(** MiniJS [==]: numeric / string content equality, identity otherwise. *)

(* {2 Garbage collection support}

   The engine heap is collected by mark-sweep (see [Eval.gc]): the
   evaluator marks reachable values, then {!sweep} frees every engine-owned
   machine buffer the marker did not visit.  Foreign (browser-owned)
   buffers are never engine-owned and never swept. *)

val owned_count : heap -> int
(** Live engine-owned buffers currently registered. *)

val sweep : heap -> live:(int -> bool) -> int
(** [sweep h ~live] frees every registered buffer whose address fails
    [live] and returns how many were freed. *)
