(** The machine-resident DOM.

    Node records, text payloads and attribute lists all live in simulated
    memory, allocated through the environment's global allocator with the
    browser's {!Sites} — so they are MT objects in every configuration
    that splits the heap, and tree traversals are checked machine loads
    performed by trusted code.

    Node handles are small integers (the values handed across the FFI to
    the engine); the id-to-address map is trusted host state.

    Host work per operation is kept to indexing: walks follow sibling
    chains in simulated memory by record address ({!fold_children}) and
    resolve a handle only for a node they hand back; building a node
    hashes nothing per node (names are interned in a table keyed by
    their bytes, handles found by index).  Every checked read and write,
    charge, allocation and free is the same, in the same order, as in a
    list-walking DOM that resolves every child (DESIGN.md §3.1). *)

type node = int

type t

val create : Pkru_safe.Env.t -> t
(** Builds an empty document with an ["html"] root. *)

val env : t -> Pkru_safe.Env.t
val root : t -> node
val node_count : t -> int

val create_element : t -> string -> node
val create_text : t -> string -> node

val append_child : t -> parent:node -> child:node -> unit
(** @raise Invalid_argument on unknown handles, if [child] already has a
    parent, if [parent] is a text node, or if [child] is [parent] or one
    of its ancestors.  The last two checks use host state only; a
    rejected call changes nothing. *)

val remove_children : t -> node -> unit
(** Detaches and frees an element's entire subtree (records, text and
    attribute storage go back to the allocator). *)

val remove_child : t -> parent:node -> child:node -> unit
(** Detaches one child and frees its subtree.
    @raise Invalid_argument if [child] is not a child of [parent]. *)

val insert_before : t -> parent:node -> child:node -> before:node -> unit
(** Inserts an unattached [child] in front of existing child [before].
    @raise Invalid_argument on attachment violations, and like
    {!append_child} when [child] is [parent] or one of its ancestors. *)

val get_element_by_id : t -> string -> node option
(** Document-order scan for an element whose [id] attribute matches
    (checked machine reads, like a real tree walk). *)

val clone_subtree : t -> node -> node
(** Deep copy of a node: fresh records, attribute storage and text
    payloads; the clone is unattached. *)

val tag_name : t -> node -> string
val parent : t -> node -> node option
val children : t -> node -> node list
val child_count : t -> node -> int

val set_attribute : t -> node -> string -> string -> unit

val get_attribute : t -> node -> string -> string option

(* {2 Interned-code access}

   Tag and attribute names share one monotonic intern table.  Compiled
   selectors ({!Selector.compile}) resolve names to codes host-side once
   and revalidate against {!tag_count}; the charged machine reads of a
   code-keyed probe are exactly those of the name-keyed one. *)

val tag_count : t -> int
(** Names interned so far (monotonic; host-side, no charge). *)

val find_code : t -> string -> int option
(** Code for an already-interned name (host-side, no charge). *)

val set_text : t -> node -> string -> unit
(** Replaces a text node's payload. @raise Invalid_argument on elements. *)

val text_content : t -> node -> string
(** Concatenated descendant text (a checked-read tree walk). *)

val query_tag : t -> string -> node list
(** All elements with the given tag, in document order. *)

val serialize : t -> node -> string
(** innerHTML-style serialisation of the node's children. *)

(* {2 Record-address walks}

   A [record] is the simulated address of a live node's record.  The
   selector and layout walks work on records, so that a handle is
   resolved only for a node handed back to a caller.  Each [_at]
   function performs exactly the charged reads of its handle version. *)

type record = int

val record : t -> node -> record
(** The node's record (host-side, no charge).
    @raise Invalid_argument on unknown handles. *)

val node_at : t -> record -> node
(** The handle of the live node whose record is at the address, or 0
    (host-side, no charge). *)

val fold_children : t -> record -> (t -> 'c -> 'a -> record -> 'a) -> 'c -> 'a -> 'a
(** [fold_children t r f ctx acc] reads [r]'s whole sibling chain (the
    first-child link, then each next-sibling link) before it calls [f t
    ctx acc child] on the children in order.  The chain is kept on a host
    stack, so [f] may walk further ([f] should be a closed function: no
    closure is allocated per child). *)

val tag_code_at : t -> record -> int
val tag_name_at : t -> record -> string
val is_text_at : t -> record -> bool
val text_at : t -> record -> string
val parent_at : t -> record -> record
(** 0 when the node has no parent. *)

val attribute_by_code_at : t -> record -> int -> string option
val get_attribute_at : t -> record -> string -> string option

(* {2 Buffer-returning variants used by the FFI bindings}

   These copy the result into a fresh allocation from the given site and
   return (address, length) — the object that then flows to the engine. *)

val text_to_buffer : t -> site:Runtime.Alloc_id.t -> string -> int * int
