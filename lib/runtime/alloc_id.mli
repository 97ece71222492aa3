(** Allocation-site identifiers.

    The compiler assigns every call to the global allocator a unique
    AllocId — "a tuple of the function ID, basic block ID, and the ID of
    the allocation call site, which allows us to later tie a specific
    AllocId to its origin location in the IR" (paper §4.3.1).  The
    profiler records AllocIds; the enforcement build rewrites exactly the
    recorded sites. *)

type t = {
  func_id : int;
  block_id : int;
  call_id : int;
}

val make : func_id:int -> block_id:int -> call_id:int -> t

val synthetic : int -> t
(** [synthetic n] is a site id for allocations made by hand-written host
    components (the browser substrate) rather than compiled IR; encoded as
    function [-1], block [0], call [n]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val to_json : t -> Util.Json.t
val of_json : Util.Json.t -> t
(** @raise Invalid_argument on a malformed value. *)

module Set : Set.S with type elt = t
module Map : Map.S with type key = t
