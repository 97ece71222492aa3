(** A per-hart, direct-mapped software TLB for the simulated memory path.

    Caches [page number -> (page bytes, permission mask)] so the common case of
    {!Machine}'s checked accesses — same few pages, unchanged PKRU — skips
    the page-table Hashtbl, the region walk and the PKRU decode entirely.
    Modelled on QEMU's softmmu TLB; the invalidation discipline (precise
    invalidation on every PKRU-affecting transition) follows Garmr's
    argument for why cached PKU checks must be revalidated.

    Entries are validated against three things on every lookup:
    {ul
    {- the page table's {e mapping epoch} (bumped by reserve / map_now /
       mprotect / pkey_mprotect — see {!Vmm.Page_table.epoch});}
    {- the hart's {e PKRU epoch} (bumped by every write through
       {!Cpu.set_pkru} / {!Cpu.wrpkru});}
    {- the raw PKRU value the mask was computed under, which also catches
       direct [cpu.pkru <- ...] stores that bypass the setter.}}

    The TLB is architecturally invisible: lookups and fills charge no
    cycles and emit no telemetry events, so cycle counts, fault sequences
    and event traces are bit-identical with the TLB on or off. *)

val size : int
(** Number of direct-mapped entries (256). *)

val index_mask : int
(** [size - 1]: a page number's entry index is [page_number land index_mask]. *)

type t = {
  tags : int array;  (** page number per entry, [-1] = invalid *)
  data : Bytes.t array;  (** the resolved page's bytes; empty when invalid *)
  perms : int array;  (** access bits the entry permits *)
  map_epochs : int array;  (** page-table epoch at fill time *)
  pkru_epochs : int array;  (** hart PKRU epoch at fill time *)
  pkrus : int array;  (** raw PKRU value the mask was computed under *)
  mutable seen_map_epoch : int;
  mutable seen_pkru_epoch : int;
      (** the last epochs a probe observed: the first probe under a new
          epoch counts one flush generation *)
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
}
(** Concrete so that [Machine]'s hit probe reads entries by field
    access, with no call.  Only [Machine] probes; it is the one place
    that updates the [seen_*] epochs and the hit/miss/flush counts
    outside {!flush}. *)

val create : unit -> t
(** An empty TLB (every entry invalid). *)

(* {2 Access-kind bits}

   The permission mask ORs these; a lookup hits only when the entry's mask
   includes the requested bit. *)

val read_bit : int
val write_bit : int

(* {2 Filling} *)

val fill : t -> map_epoch:int -> pkru_epoch:int -> pkru:Mpk.Pkru.t -> int -> Vmm.Page.t -> unit
(** Installs the slow path's resolved page, precomputing the permission
    mask from the page's protection, its key and [pkru]. *)

(* {2 Statistics} *)

type stats = {
  hits : int;
  misses : int;
  flushes : int; (** invalidation generations observed *)
}

val stats : t -> stats
val add_stats : stats -> stats -> stats
val zero_stats : stats

val hit_rate : stats -> float
(** [hits / (hits + misses)], 0 when no lookups were made. *)
