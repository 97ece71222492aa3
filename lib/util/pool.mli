(** A work pool over OCaml 5 domains, for independent jobs.

    Jobs are taken in index order from one atomic counter by the calling
    domain and the spawned ones, and each result is stored at its job's
    index: the result array is the same whatever the domain count and
    however the domains interleave.  A job must not touch state another
    job touches. *)

val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f jobs] is [Array.map f jobs], computed on [domains] domains
    (default [Domain.recommended_domain_count ()]; never more than there
    are jobs; the calling domain is one of them).  If jobs raise, the
    exception of the lowest-indexed one is re-raised after every domain
    has joined.
    @raise Invalid_argument if [domains <= 0]. *)
