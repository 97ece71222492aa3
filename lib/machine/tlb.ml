(* A per-hart, direct-mapped software TLB over the simulated page table.

   Each entry caches what a hardware TLB entry holds: one resolved page's
   bytes, its protection bits and its protection key.  The key is
   checked against the hart's live PKRU on every access, as MPK hardware
   does, so the common-case access check is: index, tag-compare,
   prot-bit test, PKRU shift-and-mask.  No Hashtbl probe, no region walk,
   and a WRPKRU (gate entry/exit, signal-handler swaps, direct
   [cpu.pkru <- ...] stores) invalidates nothing.

   Mapping changes are the one thing an entry cannot check for itself:
   [Page_table.reserve]/[map_now]/[mprotect]/[pkey_mprotect] bump the
   page table's {e mapping epoch}, and the TLB records the epoch its
   entries were filled under.  A probe under another epoch misses, and
   the fill that follows flushes every entry before installing its own.

   This module owns the entry format: the hit test ([hit], inlined into
   [Machine]'s access paths, which count hits and misses), the fill and
   the stats.

   The TLB is architecturally invisible: it charges no cycles and emits
   no events, so simulated cycle counts and telemetry traces are
   bit-identical with the TLB on or off (asserted by test/test_tlb.ml). *)

let bits = 8
let size = 1 lsl bits

let read_bit = 1
let write_bit = 2
let key_shift = 2

type stats = {
  hits : int;
  misses : int;
  flushes : int;
}

type t = {
  tags : int array; (* page number, -1 = invalid *)
  data : Bytes.t array; (* the resolved page's bytes *)
  perms : int array; (* read/write prot bits lor (2 * pkey) lsl key_shift *)
  mutable seen_map_epoch : int;
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
}

(* An invalid entry's bytes are empty: its tag is -1, which no page
   number (an address shifted right) equals, so it never hits and they
   are never read. *)
let create () =
  {
    tags = Array.make size (-1);
    data = Array.make size Bytes.empty;
    perms = Array.make size 0;
    seen_map_epoch = 0;
    hits = 0;
    misses = 0;
    flushes = 0;
  }

let[@inline never] flush t map_epoch =
  Array.fill t.tags 0 size (-1);
  Array.fill t.data 0 size Bytes.empty;
  t.seen_map_epoch <- map_epoch;
  t.flushes <- t.flushes + 1

(* The entry's key field is the shift that brings the key's AD bit to
   bit 0 of PKRU (WD follows at bit 1), so the probe needs no decode. *)
let fill t ~map_epoch page_number (page : Vmm.Page.t) =
  if map_epoch <> t.seen_map_epoch then flush t map_epoch;
  let i = page_number land (size - 1) in
  let prot = page.Vmm.Page.prot in
  t.tags.(i) <- page_number;
  t.data.(i) <- page.Vmm.Page.data;
  t.perms.(i) <-
    (if prot.Vmm.Prot.read then read_bit else 0)
    lor (if prot.Vmm.Prot.write then write_bit else 0)
    lor ((2 * Mpk.Pkey.to_int page.Vmm.Page.pkey) lsl key_shift)

(* [(pkru lsr (e lsr key_shift)) land 1] is the key's AD bit, [land 3]
   its AD and WD bits: a read needs AD clear, a write both, exactly the
   slow path's check.  [i] is masked to [0, size), so the unsafe reads
   stay in bounds. *)
let[@inline always] hit t ~map_epoch ~(pkru : Mpk.Pkru.t) abit page_number i =
  map_epoch = t.seen_map_epoch
  && Array.unsafe_get t.tags i = page_number
  &&
  let e = Array.unsafe_get t.perms i in
  e land abit <> 0 && ((pkru :> int) lsr (e lsr key_shift)) land (abit lor 1) = 0

let stats t : stats = { hits = t.hits; misses = t.misses; flushes = t.flushes }

let add_stats (a : stats) (b : stats) =
  { hits = a.hits + b.hits; misses = a.misses + b.misses; flushes = a.flushes + b.flushes }

let zero_stats = { hits = 0; misses = 0; flushes = 0 }

let hit_rate (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
