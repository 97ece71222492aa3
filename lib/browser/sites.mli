(** The browser's allocation sites.

    The browser substrate is hand-written host code rather than compiled
    IR, so its allocator call sites carry fixed AllocIds (the compiler
    would have assigned equivalents).  Keeping them distinct is what lets
    the profiler discover that, e.g., script source buffers and
    getAttribute results flow into the engine while DOM node records never
    do — the "274 of 12088 sites" effect of §5.3. *)

val node_record : Runtime.Alloc_id.t
(** 64-byte DOM node records *)

val text_buffer : Runtime.Alloc_id.t
(** text node payloads *)

val attr_record : Runtime.Alloc_id.t
(** attribute list cells *)

val attr_value : Runtime.Alloc_id.t
(** attribute value bytes *)

val title_buffer : Runtime.Alloc_id.t
val script_source : Runtime.Alloc_id.t
(** script text handed to the engine *)

val inner_html : Runtime.Alloc_id.t
(** innerHTML serialisation buffers *)

val get_attribute : Runtime.Alloc_id.t
(** getAttribute result copies *)

val text_content : Runtime.Alloc_id.t
(** textContent result copies *)

val query_result : Runtime.Alloc_id.t
(** scratch used to build query results *)

val layout_scratch : Runtime.Alloc_id.t
(** layout pass scratch buffers *)
