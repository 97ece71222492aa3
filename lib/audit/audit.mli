(** The cross-compartment provenance auditor.

    The runtime counterpart of the paper's offline dynamic analysis: a
    conservative pointer scan that answers, from live machine state, the
    question the PKRU-safe classification is supposed to have settled —
    {e can the unsafe compartment reach any trusted-pool object?}

    The scan walks every {e resident} page the unsafe compartment can
    read (per-page pkey ≠ trusted key, protection includes read), reads
    each 8-byte-aligned little-endian word, and flags words that point
    into a live MT-pool object (interior pointers included) as recorded
    by the supplied live-object table.  Each finding is attributed to the
    object's allocation site, so confirmed leaks can be routed to MU on
    the next run through pkalloc's quarantine/site-override table
    ({!promote}) — exactly the feedback loop of the paper's
    profile-guided placement, but driven by runtime evidence.

    The scan is a pure read over page bytes and allocator metadata: it
    charges no simulated cycles, takes no checked accesses, and never
    materialises pages, so an audited run is bit-identical (cycles,
    faults, event trace) to an unaudited one. *)

type finding = {
  f_site : string;  (** printed AllocId of the leaked object's site *)
  f_obj_base : int;  (** base address of the reachable MT object *)
  f_obj_size : int;
  f_ptr_addr : int;  (** U-accessible address holding the pointer word *)
  f_ptr_value : int;  (** the word (may point inside the object) *)
}

type site_summary = {
  s_site : string;
  s_objects : int;  (** distinct MT objects reachable from U *)
  s_bytes : int;  (** summed sizes of those objects *)
  s_refs : int;  (** pointer words referencing them *)
}

type report = {
  scanned_pages : int;  (** resident U-accessible pages visited *)
  scanned_words : int;  (** aligned words examined *)
  findings : finding list;  (** in page-then-offset scan order *)
  sites : site_summary list;  (** aggregated, sorted by site *)
}

val scan : metadata:Runtime.Metadata.t -> Allocators.Pkalloc.t -> report
(** Conservative pointer scan of the machine behind [pkalloc].  A word is
    a finding iff it falls inside the MT pool's reservation {e and}
    inside a live object tracked by [metadata] — dangling values into
    freed objects are not leaks.  Deterministic: pages are walked in
    ascending page-number order, words in ascending offset order. *)

val leak_free : report -> bool
(** No MT object reachable from U — the invariant chaos asserts. *)

val promote : Allocators.Pkalloc.t -> report -> string list
(** Feed the evidence into pkalloc's quarantine/site-override table:
    every leaking site not already quarantined is quarantined, so its
    {e future} allocations are served from MU (live objects keep their
    pool — the provenance invariant).  Returns the sites newly
    quarantined, sorted. *)

val to_json : report -> Util.Json.t
val render : ?attribution:Telemetry.Attribution.t -> report -> string
(** Human-readable table.  With [attribution], each site row says whether
    the traced run corroborates it ([corroborated]: MPK faults landed in
    that site's allocations, so enforcement already tripped over it) or
    not ([latent]: a leak the workload never dereferenced from U). *)

val prometheus : report -> string
