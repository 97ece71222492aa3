(** Profiles: the set of allocation sites observed flowing into the
    untrusted compartment.

    A profiling run produces one of these; the enforcement build consumes
    it, moving exactly the recorded sites from MT to MU.  Profiles
    serialise to JSON so they can be saved between the profile and
    enforcement builds (like the artifact's profile files), and merge so a
    corpus of runs can be combined. *)

type t

val create : unit -> t

val record : t -> Alloc_id.t -> unit
(** Adds a site; recording the same AllocId again only bumps its hit
    count ("this limits our profile to a set of unique faulting allocation
    sites"). *)

val mem : t -> Alloc_id.t -> bool

val version : t -> int
(** Changes whenever {!mem} may have changed (a new site was recorded):
    lets a consumer cache membership answers. *)

val cardinal : t -> int
val sites : t -> Alloc_id.t list
(** In increasing AllocId order. *)

val hit_count : t -> Alloc_id.t -> int
(** Number of faults recorded for a site (0 if absent). *)

val merge : t -> t -> t
(** Union of two profiling runs, summing hit counts. *)

val subset : t -> fraction:float -> rng:Util.Rng.t -> t
(** Keeps each site with probability [fraction] — models an incomplete
    profiling corpus for the profile-coverage ablation (§6). *)

val to_json : t -> Util.Json.t

val save : t -> string -> unit
(** Writes pretty JSON to a file. *)

val load : string -> t
(** @raise Sys_error / Invalid_argument on failure. *)
