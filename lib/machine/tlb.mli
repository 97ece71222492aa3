(** A per-hart, direct-mapped software TLB for the simulated memory path.

    Caches what a hardware TLB entry holds, [page number -> (page bytes,
    protection bits, protection key)], so the common case of {!Machine}'s
    checked accesses skips the page-table lookup and the region walk.
    Modelled on QEMU's softmmu TLB, with the key check of x86 MPK: the
    probe checks the entry's key against the hart's {e live} PKRU on
    every access, so a WRPKRU (a gate crossing, a signal-handler swap, a
    profiler single step, a direct [cpu.pkru <- ...] store) invalidates
    nothing.

    Mapping changes are caught by the page table's {e mapping epoch}
    (bumped by reserve / map_now / mprotect / pkey_mprotect — see
    {!Vmm.Page_table.epoch}): a probe under an epoch other than
    {!field-seen_map_epoch} misses, and {!fill} then flushes every entry
    before installing its own.

    The TLB is architecturally invisible: lookups and fills charge no
    cycles and emit no telemetry events, so cycle counts, fault sequences
    and event traces are bit-identical with the TLB on or off. *)

val size : int
(** Number of direct-mapped entries (256): a page number's entry index
    is [page_number land (size - 1)]. *)

type t = {
  tags : int array;  (** page number per entry, [-1] = invalid *)
  data : Bytes.t array;  (** the resolved page's bytes; empty when invalid *)
  perms : int array;
      (** the page's {!read_bit}/{!write_bit} protection bits and its
          key, packed for {!hit} *)
  mutable seen_map_epoch : int;
      (** the mapping epoch every valid entry was filled under *)
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
}
(** Concrete so that [Machine]'s access paths read a hit's bytes and
    count hits and misses by field access, with no call.  Only {!fill}
    writes entries, the epoch and the flush count. *)

val create : unit -> t
(** An empty TLB (every entry invalid). *)

(* {2 Probing} *)

val read_bit : int
val write_bit : int

val hit : t -> map_epoch:int -> pkru:Mpk.Pkru.t -> int -> int -> int -> bool
(** [hit t ~map_epoch ~pkru abit page_number i], with [abit] {!read_bit}
    or {!write_bit} and [i = page_number land (size - 1)]: entry [i]
    holds [page_number], was filled under the page table's current
    [map_epoch], its protection bits include [abit], and [pkru] allows
    its key (AD clear for a read, AD and WD clear for a write).  Inlined
    into [Machine]'s access paths; the caller counts the hit or the
    miss. *)

(* {2 Filling} *)

val fill : t -> map_epoch:int -> int -> Vmm.Page.t -> unit
(** Installs the slow path's resolved page under the page table's
    current [map_epoch], first flushing every entry (one flush
    generation) when that epoch is not {!field-seen_map_epoch}: a fault
    handler run by the slow path may have changed a mapping. *)

(* {2 Statistics} *)

type stats = {
  hits : int;
  misses : int;
  flushes : int; (** mapping generations the entries were flushed for *)
}

val stats : t -> stats
val add_stats : stats -> stats -> stats
val zero_stats : stats

val hit_rate : stats -> float
(** [hits / (hits + misses)], 0 when no lookups were made. *)
