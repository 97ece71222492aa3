(** The simulated process page table.

    Supports the two mapping idioms pkalloc relies on:
    {ul
    {- [reserve]: one large up-front mmap with on-demand paging — pages are
       only materialised (zeroed, counted) on first touch, so reserving a
       huge MT region "has virtually no cost if those pages are never
       used" (paper §4.4);}
    {- [map_now]: eager mapping for small fixed regions such as the secret
       page in the security experiment.}}

    Pages carry MPK keys; [pkey_mprotect] retags a range, like the Linux
    syscall of the same name. *)

type region
(** One reservation: base, size, protection and key. *)

type t = private {
  pages : Page.t Util.Int_table.t;  (** page number -> materialised page *)
  no_page : Page.t;  (** [pages]' dummy, returned for an absent page *)
  mutable regions : region array;  (** disjoint, sorted by base *)
  mutable demand_faults : int;
  mutable epoch : int;
      (** The mapping epoch: a generation counter bumped by every
          successful [reserve], [map_now], [mprotect] and
          [pkey_mprotect].  Cached translations (the simulator's
          software TLB) record the epoch at fill time and revalidate
          against it on every lookup, so mapping or protection changes
          invalidate them without any eager flush. *)
}
(** Private so that the simulator's TLB probe reads {!field-epoch} by
    field access; only this module writes it. *)

val create : unit -> t

val reserve : t -> base:int -> size:int -> prot:Prot.t -> pkey:Mpk.Pkey.t -> (unit, string) result
(** Registers an on-demand region.  Fails on overlap with an existing
    reservation, on W^X-violating protections, or on unaligned arguments. *)

val map_now : t -> base:int -> size:int -> prot:Prot.t -> pkey:Mpk.Pkey.t -> (unit, string) result
(** [reserve] followed by materialising every page in the range. *)

val lookup : t -> int -> Page.t option
(** [lookup t addr] returns the page holding [addr], materialising it on
    demand if [addr] falls in a reservation; [None] if unmapped. *)

val is_reserved : t -> int -> bool
(** True if [addr] lies inside any reservation (mapped or not yet). *)

val pkey_mprotect : t -> base:int -> size:int -> Mpk.Pkey.t -> (unit, string) result
(** Retags all pages of an existing reservation range with a new key, and
    records the key so pages materialised later also get it. *)

val mprotect : t -> base:int -> size:int -> Prot.t -> (unit, string) result
(** Changes protection bits over a reserved range. *)

val resident_pages : t -> int
(** Number of materialised pages (the simulated RSS, in pages). *)

val resident_page_list : t -> (int * Page.t) list
(** Every materialised page as [(page number, page)], sorted by page
    number.  Pure read: never materialises, so iterating it cannot
    perturb {!demand_faults} — the property the conservative pointer
    scan of the provenance auditor relies on. *)

val demand_faults : t -> int
(** Number of pages materialised lazily, i.e. soft page faults taken. *)
