(* A per-hart, direct-mapped software TLB over the simulated page table.

   Each entry caches one resolved page's bytes together with a permission mask
   precomputed from the page protection bits, the page's protection key
   and the PKRU value at fill time, so the common-case access check is:
   index, tag-compare, mask-test.  No Hashtbl probe, no region walk, no
   PKRU decode.

   Correctness rests on the invalidation protocol, not on eager flushes:
   {ul
   {- every entry records the page table's {e mapping epoch} at fill time;
      [Page_table.reserve]/[map_now]/[mprotect]/[pkey_mprotect] bump that
      epoch, so entries filled before any mapping change miss;}
   {- every entry records the hart's {e PKRU epoch} ([Cpu.pkru_epoch],
      bumped by every PKRU write through [Cpu.set_pkru]/[Cpu.wrpkru]) and,
      belt-and-braces, the raw PKRU value the mask was computed under, so
      entries survive neither a WRPKRU (gate entry/exit, signal-handler
      swaps) nor a direct [cpu.pkru <- ...] assignment from test code.}}

   The hit probe itself lives in [Machine] (its only caller), inline on
   the access path; this module owns the entries, the fill and the stats.

   The TLB is architecturally invisible: it charges no cycles and emits
   no events, so simulated cycle counts and telemetry traces are
   bit-identical with the TLB on or off (asserted by test/test_tlb.ml). *)

let bits = 8
let size = 1 lsl bits
let index_mask = size - 1

let read_bit = 1
let write_bit = 2
let execute_bit = 4

type stats = {
  hits : int;
  misses : int;
  flushes : int;
}

type t = {
  tags : int array; (* page number, -1 = invalid *)
  data : Bytes.t array; (* the resolved page's bytes *)
  perms : int array; (* read/write/execute bits permitted for the entry *)
  map_epochs : int array;
  pkru_epochs : int array;
  pkrus : int array; (* raw PKRU value the mask was computed under *)
  mutable seen_map_epoch : int;
  mutable seen_pkru_epoch : int;
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
    map_epochs = Array.make size (-1);
    pkru_epochs = Array.make size (-1);
    pkrus = Array.make size (-1);
    seen_map_epoch = 0;
    seen_pkru_epoch = 0;
    hits = 0;
    misses = 0;
    flushes = 0;
  }

(* The mask mirrors [Machine.check_page] exactly: a read needs the page
   readable and the key's AD bit clear; a write additionally needs the
   prot write bit and WD clear; execute follows the read rule on the key
   side (AD governs instruction fetch, as on real MPK hardware). *)
let perm_mask (page : Vmm.Page.t) pkru =
  let prot = page.Vmm.Page.prot in
  let key_bits = Mpk.Pkru.access_bits pkru page.Vmm.Page.pkey in
  (if prot.Vmm.Prot.read && key_bits land 1 <> 0 then read_bit else 0)
  lor (if prot.Vmm.Prot.write && key_bits land 2 <> 0 then write_bit else 0)
  lor (if prot.Vmm.Prot.execute && key_bits land 1 <> 0 then execute_bit else 0)

let fill t ~map_epoch ~pkru_epoch ~pkru page_number (page : Vmm.Page.t) =
  let i = page_number land index_mask in
  t.tags.(i) <- page_number;
  t.data.(i) <- page.Vmm.Page.data;
  t.perms.(i) <- perm_mask page pkru;
  t.map_epochs.(i) <- map_epoch;
  t.pkru_epochs.(i) <- pkru_epoch;
  t.pkrus.(i) <- Mpk.Pkru.to_int pkru

let stats t : stats = { hits = t.hits; misses = t.misses; flushes = t.flushes }

let add_stats (a : stats) (b : stats) =
  { hits = a.hits + b.hits; misses = a.misses + b.misses; flushes = a.flushes + b.flushes }

let zero_stats = { hits = 0; misses = 0; flushes = 0 }

let hit_rate (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
