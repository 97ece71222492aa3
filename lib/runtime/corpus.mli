(** Profiling corpora: collections of named profiling runs.

    §6 sketches how PKRU-Safe would deploy: "operating systems and
    applications often test and profile applications and collect telemetry
    and performance information using a subset of their installation base.
    In principle, PKRU-Safe could be deployed using similar approaches."
    This module is that machinery: runs from many inputs (or installations)
    are collected, merged into the deployment profile, persisted between
    toolchain stages, and analysed for coverage quality — which runs
    contribute sites, and which sites rest on only a few runs (the ones a
    thinner corpus would lose, crashing the enforcement build). *)

type t

val create : unit -> t

val add_run : t -> name:string -> Profile.t -> unit
(** Adds a named run. @raise Invalid_argument on a duplicate name. *)

val run_count : t -> int
val runs : t -> (string * Profile.t) list
(** In insertion order. *)

val merged : t -> Profile.t
(** The deployment profile: union of every run. *)

val coverage : t -> Alloc_id.t -> int
(** Number of runs that observed the site. *)

val fragile_sites : t -> max_runs:int -> Alloc_id.t list
(** Sites seen by at most [max_runs] runs — the profile's weak spots. *)

val marginal_gains : t -> (string * int) list
(** For each run in insertion order, how many sites it added that no
    earlier run had — a corpus-growth curve (flat tail = saturated
    corpus). *)

val save_dir : t -> string -> unit
(** Writes one [<name>.profile.json] per run plus a [corpus.json] index.
    Creates the directory if needed. *)

val load_dir : string -> t
(** Inverse of {!save_dir}.
    @raise Sys_error / Invalid_argument on malformed input. *)
