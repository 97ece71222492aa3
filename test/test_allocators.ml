(* Tests for the allocator stack: pools, size classes, both heap allocators
   and the pkalloc split allocator. *)

open Allocators

let page = Vmm.Layout.page_size
let key = Mpk.Pkey.of_int

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let fresh_pool ?(pages = 4096) ?(pkey = key 0) () =
  let m = Sim.Machine.create () in
  let pool = ok (Pool.create m ~base:0x100_0000 ~size:(pages * page) ~pkey) in
  (m, pool)

(* --- Pool --- *)

let test_pool_bump_and_recycle () =
  let _, pool = fresh_pool () in
  let a = Option.get (Pool.alloc_span pool 2) in
  let b = Option.get (Pool.alloc_span pool 3) in
  Alcotest.(check bool) "disjoint" true (b >= a + (2 * page) || a >= b + (3 * page));
  Alcotest.(check int) "in use" 5 (Pool.pages_in_use pool);
  Pool.free_span pool a 2;
  Alcotest.(check int) "after free" 3 (Pool.pages_in_use pool);
  let c = Option.get (Pool.alloc_span pool 1) in
  Alcotest.(check int) "recycled from freed span" a c;
  Alcotest.(check int) "high water" 5 (Pool.high_water_pages pool)

let test_pool_exhaustion () =
  let _, pool = fresh_pool ~pages:4 () in
  Alcotest.(check bool) "fits" true (Pool.alloc_span pool 4 <> None);
  Alcotest.(check bool) "exhausted" true (Pool.alloc_span pool 1 = None)

let test_pool_contains () =
  let _, pool = fresh_pool ~pages:2 () in
  Alcotest.(check bool) "inside" true (Pool.contains pool 0x100_0000);
  Alcotest.(check bool) "outside" false (Pool.contains pool (0x100_0000 + (2 * page)))

(* --- Size classes --- *)

let test_size_class_ladder () =
  Alcotest.(check int) "1 byte -> 8" 8 (Size_class.bytes (Size_class.small_class 1));
  Alcotest.(check int) "9 -> 16" 16 (Size_class.bytes (Size_class.small_class 9));
  Alcotest.(check int) "3584 exact" 3584 (Size_class.bytes (Size_class.small_class 3584));
  Alcotest.(check bool) "3585 is large" true (3585 > Size_class.max_small)

let prop_size_class_fits =
  QCheck.Test.make ~count:500 ~name:"size class fits and is minimal"
    QCheck.(int_range 1 3584)
    (fun n ->
      let c = Size_class.small_class n in
      let b = Size_class.bytes c in
      b >= n
      && ((c :> int) = 0 || Size_class.bytes (Size_class.small_class (b - 1)) <= b))

let prop_runs_fill_pages =
  QCheck.Test.make ~count:100 ~name:"run geometry consistent"
    QCheck.(int_range 1 3584)
    (fun n ->
      let c = Size_class.small_class n in
      Size_class.slots_per_run c * Size_class.bytes c
      <= Size_class.run_pages c * Vmm.Layout.page_size
      && Size_class.slots_per_run c >= 1)

(* --- Jemalloc model --- *)

let fresh_je ?(pages = 4096) () =
  let m, pool = fresh_pool ~pages () in
  (m, Jemalloc_model.create m pool)

let test_je_basic_roundtrip () =
  let m, pool = fresh_pool () in
  let je = Jemalloc_model.create m pool in
  let a = Option.get (Jemalloc_model.alloc je 100) in
  let b = Option.get (Jemalloc_model.alloc je 100) in
  Alcotest.(check bool) "distinct" true (a <> b);
  Alcotest.(check (option int)) "usable" (Some 112) (Jemalloc_model.usable_size je a);
  Sim.Machine.write_u64 m a 0xFEED;
  Alcotest.(check int) "payload round-trip" 0xFEED (Sim.Machine.read_u64 m a);
  Jemalloc_model.free je a;
  Jemalloc_model.free je b;
  Alcotest.(check int) "all runs released" 0 (Pool.pages_in_use pool)

let test_je_slot_reuse () =
  let _, je = fresh_je () in
  (* Fill one whole run of the 64-byte class, then free a single slot: the
     next allocation must reuse exactly that slot. *)
  let cls = Size_class.small_class 64 in
  let slots = Size_class.slots_per_run cls in
  let addrs = Array.init slots (fun _ -> Option.get (Jemalloc_model.alloc je 64)) in
  let victim = addrs.(slots / 2) in
  Jemalloc_model.free je victim;
  let c = Option.get (Jemalloc_model.alloc je 64) in
  Alcotest.(check int) "slot reused" victim c

let test_je_large () =
  let _, je = fresh_je () in
  let a = Option.get (Jemalloc_model.alloc je 10_000) in
  Alcotest.(check int) "page aligned" 0 (Vmm.Layout.page_offset a);
  Alcotest.(check (option int)) "usable rounds to pages" (Some (3 * page))
    (Jemalloc_model.usable_size je a);
  Jemalloc_model.free je a

let test_je_errors () =
  let _, je = fresh_je () in
  let a = Option.get (Jemalloc_model.alloc je 64) in
  Jemalloc_model.free je a;
  Alcotest.(check bool) "double free rejected" true
    (match Jemalloc_model.free je a with
    | exception Invalid_argument _ -> true
    | () -> false);
  Alcotest.(check bool) "foreign pointer rejected" true
    (match Jemalloc_model.free je 0xdead0 with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_je_exhaustion () =
  let _, je = fresh_je ~pages:2 () in
  Alcotest.(check bool) "first fits" true (Jemalloc_model.alloc je page <> None);
  Alcotest.(check bool) "second fits" true (Jemalloc_model.alloc je page <> None);
  Alcotest.(check bool) "exhausted" true (Jemalloc_model.alloc je page = None)

(* Allocation/free stress against a shadow model: no live block may overlap
   another, and writes through one block never corrupt another. *)
let prop_je_no_overlap =
  QCheck.Test.make ~count:30 ~name:"jemalloc: live blocks never overlap"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Util.Rng.create seed in
      let _, je = fresh_je () in
      let live = ref [] in
      let overlap (a1, s1) (a2, s2) = a1 < a2 + s2 && a2 < a1 + s1 in
      let result = ref true in
      for _ = 1 to 400 do
        if Util.Rng.int rng 3 < 2 || !live = [] then begin
          let size = 1 + Util.Rng.int rng 6000 in
          match Jemalloc_model.alloc je size with
          | None -> ()
          | Some addr ->
            let block = (addr, size) in
            if List.exists (overlap block) !live then result := false;
            live := block :: !live
        end
        else begin
          let idx = Util.Rng.int rng (List.length !live) in
          let addr, _ = List.nth !live idx in
          Jemalloc_model.free je addr;
          live := List.filteri (fun i _ -> i <> idx) !live
        end;
        match Jemalloc_model.check_index je with
        | Ok () -> ()
        | Error msg -> QCheck.Test.fail_report msg
      done;
      !result)

(* --- Dlmalloc model --- *)

let fresh_dl ?(pages = 4096) () =
  let m, pool = fresh_pool ~pages () in
  (m, Dlmalloc_model.create m pool)

let test_dl_basic_roundtrip () =
  let m, dl = fresh_dl () in
  let a = Option.get (Dlmalloc_model.alloc dl 100) in
  Alcotest.(check bool) "16-aligned payload" true (a mod 16 = 0);
  Sim.Machine.write_string m a "0123456789";
  Alcotest.(check string) "payload" "0123456789" (Sim.Machine.priv_read_string m a 10);
  (match Dlmalloc_model.usable_size dl a with
  | Some n -> Alcotest.(check bool) "usable >= requested" true (n >= 100)
  | None -> Alcotest.fail "usable_size");
  Dlmalloc_model.free dl a;
  Alcotest.(check (option int)) "not owned after free" None (Dlmalloc_model.usable_size dl a);
  ok (Dlmalloc_model.check_heap dl)

let test_dl_coalescing () =
  let _, dl = fresh_dl () in
  let a = Option.get (Dlmalloc_model.alloc dl 64) in
  let b = Option.get (Dlmalloc_model.alloc dl 64) in
  let c = Option.get (Dlmalloc_model.alloc dl 64) in
  (* Free in an order that exercises both next- and prev-coalescing. *)
  Dlmalloc_model.free dl a;
  Dlmalloc_model.free dl c;
  Dlmalloc_model.free dl b;
  ok (Dlmalloc_model.check_heap dl);
  (* After coalescing, a block spanning all three fits where [a] was. *)
  let big = Option.get (Dlmalloc_model.alloc dl 200) in
  Alcotest.(check int) "coalesced space reused" a big

let test_dl_errors () =
  let _, dl = fresh_dl () in
  let a = Option.get (Dlmalloc_model.alloc dl 64) in
  Dlmalloc_model.free dl a;
  Alcotest.(check bool) "double free" true
    (match Dlmalloc_model.free dl a with
    | exception Invalid_argument _ -> true
    | () -> false);
  Alcotest.(check bool) "foreign" true
    (match Dlmalloc_model.free dl 0x42 with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_dl_detects_corruption () =
  let m, dl = fresh_dl () in
  let a = Option.get (Dlmalloc_model.alloc dl 64) in
  (* Smash the header the way a heap-overflow bug would. *)
  Sim.Machine.priv_write_u64 m (a - 8) 0xFFFF;
  Alcotest.(check bool) "corruption detected" true
    (match Dlmalloc_model.free dl a with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_dl_is_slower_than_je () =
  (* The MU allocator must cost more cycles per op than the MT allocator;
     the paper's alloc-config overhead rests on this. *)
  let run_alloc_cycles alloc free machine =
    let c0 = Sim.Machine.cycles machine in
    let addrs = List.init 200 (fun i -> Option.get (alloc (16 + (i mod 64)))) in
    List.iter free addrs;
    Sim.Machine.cycles machine - c0
  in
  let m1, je = fresh_je () in
  let je_cycles = run_alloc_cycles (Jemalloc_model.alloc je) (Jemalloc_model.free je) m1 in
  let m2, dl = fresh_dl () in
  let dl_cycles = run_alloc_cycles (Dlmalloc_model.alloc dl) (Dlmalloc_model.free dl) m2 in
  Alcotest.(check bool)
    (Printf.sprintf "dl (%d) slower than je (%d)" dl_cycles je_cycles)
    true (dl_cycles > je_cycles)

let prop_dl_heap_invariants =
  QCheck.Test.make ~count:25 ~name:"dlmalloc: heap invariants under random workload"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Util.Rng.create seed in
      let _, dl = fresh_dl () in
      let live = ref [] in
      for _ = 1 to 300 do
        if Util.Rng.int rng 3 < 2 || !live = [] then begin
          let size = 1 + Util.Rng.int rng 2000 in
          match Dlmalloc_model.alloc dl size with
          | None -> ()
          | Some addr -> live := addr :: !live
        end
        else begin
          let idx = Util.Rng.int rng (List.length !live) in
          Dlmalloc_model.free dl (List.nth !live idx);
          live := List.filteri (fun i _ -> i <> idx) !live
        end
      done;
      match Dlmalloc_model.check_heap dl with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

let prop_dl_payload_integrity =
  QCheck.Test.make ~count:15 ~name:"dlmalloc: payloads survive neighbours' churn"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Util.Rng.create seed in
      let m, dl = fresh_dl () in
      let live = Hashtbl.create 32 in
      let result = ref true in
      for step = 1 to 300 do
        if Util.Rng.int rng 3 < 2 || Hashtbl.length live = 0 then begin
          let size = 8 + Util.Rng.int rng 500 in
          match Dlmalloc_model.alloc dl size with
          | None -> ()
          | Some addr ->
            let stamp = (step * 0x9E37) land 0xFFFF_FFFF in
            Sim.Machine.write_u32 m addr stamp;
            Sim.Machine.write_u32 m (addr + size - 4) stamp;
            Hashtbl.replace live addr (size, stamp)
        end
        else begin
          let keys = Hashtbl.fold (fun k _ acc -> k :: acc) live [] in
          let addr = List.nth keys (Util.Rng.int rng (List.length keys)) in
          let size, stamp = Hashtbl.find live addr in
          if Sim.Machine.read_u32 m addr <> stamp then result := false;
          if Sim.Machine.read_u32 m (addr + size - 4) <> stamp then result := false;
          Dlmalloc_model.free dl addr;
          Hashtbl.remove live addr
        end
      done;
      Hashtbl.iter
        (fun addr (size, stamp) ->
          if Sim.Machine.read_u32 m addr <> stamp then result := false;
          if Sim.Machine.read_u32 m (addr + size - 4) <> stamp then result := false)
        live;
      !result)

(* --- pkalloc --- *)

let fresh_pk ?mu_backend () =
  let m = Sim.Machine.create () in
  (m, ok (Pkalloc.create ?mu_backend m))

let test_pk_pools_disjoint_and_tagged () =
  let m, pk = fresh_pk () in
  let t_addr = Option.get (Pkalloc.alloc_trusted pk 64) in
  let u_addr = Option.get (Pkalloc.alloc_untrusted pk 64) in
  Alcotest.(check bool) "trusted addr in MT" true (Vmm.Layout.in_trusted t_addr);
  Alcotest.(check bool) "untrusted addr in MU" true (Vmm.Layout.in_untrusted u_addr);
  let page_of addr = Option.get (Vmm.Page_table.lookup m.Sim.Machine.page_table addr) in
  Alcotest.(check int) "MT pkey" 1 (Mpk.Pkey.to_int (page_of t_addr).Vmm.Page.pkey);
  Alcotest.(check int) "MU pkey" 0 (Mpk.Pkey.to_int (page_of u_addr).Vmm.Page.pkey)

let test_pk_dealloc_dispatch () =
  let _, pk = fresh_pk () in
  let t_addr = Option.get (Pkalloc.alloc_trusted pk 64) in
  let u_addr = Option.get (Pkalloc.alloc_untrusted pk 64) in
  Pkalloc.dealloc pk t_addr;
  Pkalloc.dealloc pk u_addr;
  Alcotest.(check bool) "foreign rejected" true
    (match Pkalloc.dealloc pk 0x55 with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_pk_realloc_stays_in_pool () =
  let m, pk = fresh_pk () in
  let t_addr = Option.get (Pkalloc.alloc_trusted pk 32) in
  Sim.Machine.write_string m t_addr "trusted-data";
  let t_addr' = Option.get (Pkalloc.realloc pk t_addr 5000) in
  Alcotest.(check (option string)) "still trusted" (Some "Trusted")
    (match Pkalloc.pool_of_addr pk t_addr' with
    | Some `Trusted -> Some "Trusted"
    | Some `Untrusted -> Some "Untrusted"
    | None -> None);
  Alcotest.(check string) "payload copied" "trusted-data" (Sim.Machine.priv_read_string m t_addr' 12);
  let u_addr = Option.get (Pkalloc.alloc_untrusted pk 32) in
  Sim.Machine.write_string m u_addr "untrusted!!!";
  let u_addr' = Option.get (Pkalloc.realloc pk u_addr 4096) in
  Alcotest.(check bool) "still untrusted" true (Vmm.Layout.in_untrusted u_addr');
  Alcotest.(check string) "payload copied" "untrusted!!!"
    (Sim.Machine.priv_read_string m u_addr' 12)

let test_pk_realloc_shrink () =
  let m, pk = fresh_pk () in
  let a = Option.get (Pkalloc.alloc_trusted pk 256) in
  Sim.Machine.write_string m a "abcdefgh";
  let b = Option.get (Pkalloc.realloc pk a 8) in
  Alcotest.(check string) "first 8 bytes survive" "abcdefgh" (Sim.Machine.priv_read_string m b 8)

let test_pk_percent_untrusted () =
  let _, pk = fresh_pk () in
  ignore (Option.get (Pkalloc.alloc_trusted pk 1000));
  ignore (Option.get (Pkalloc.alloc_untrusted pk 1000));
  let bytes stats = float_of_int stats.Alloc_stats.bytes_allocated in
  let mt = bytes (Pkalloc.trusted_stats pk) and mu = bytes (Pkalloc.untrusted_stats pk) in
  let pct = 100.0 *. mu /. (mt +. mu) in
  Alcotest.(check bool) "roughly half" true (pct > 30.0 && pct < 70.0)

let test_pk_mu_jemalloc_ablation () =
  (* Ablation backend: MU allocations must come from the untrusted pool and
     be cheaper than with the dlmalloc backend. *)
  let m_fast, pk_fast = fresh_pk ~mu_backend:Pkalloc.Mu_jemalloc () in
  let m_slow, pk_slow = fresh_pk ~mu_backend:Pkalloc.Mu_dlmalloc () in
  let cycles_of m pk =
    let c0 = Sim.Machine.cycles m in
    let addrs = List.init 100 (fun _ -> Option.get (Pkalloc.alloc_untrusted pk 64)) in
    List.iter (Pkalloc.dealloc pk) addrs;
    Sim.Machine.cycles m - c0
  in
  let fast = cycles_of m_fast pk_fast in
  let slow = cycles_of m_slow pk_slow in
  Alcotest.(check bool) (Printf.sprintf "fast MU (%d) < slow MU (%d)" fast slow) true (fast < slow)

let test_dl_resize_in_place () =
  let m, dl = fresh_dl () in
  let a = Option.get (Dlmalloc_model.alloc dl 64) in
  Sim.Machine.write_u64 m a 0xAA;
  (* Shrink in place. *)
  Alcotest.(check bool) "shrink" true (Dlmalloc_model.try_resize dl a 16);
  Alcotest.(check int) "payload intact" 0xAA (Sim.Machine.read_u64 m a);
  ok (Dlmalloc_model.check_heap dl);
  (* Grow back into the split-off free neighbour. *)
  Alcotest.(check bool) "grow into free successor" true (Dlmalloc_model.try_resize dl a 64);
  ok (Dlmalloc_model.check_heap dl);
  (* Growing past a live neighbour fails. *)
  let b = Option.get (Dlmalloc_model.alloc dl 64) in
  ignore b;
  Alcotest.(check bool) "grow blocked by live neighbour" false
    (Dlmalloc_model.try_resize dl a 100_000);
  ok (Dlmalloc_model.check_heap dl)

let test_je_resize_in_place () =
  let _, je = fresh_je () in
  let a = Option.get (Jemalloc_model.alloc je 100) in
  (* 100 -> class 112: anything <= 112 resizes in place. *)
  Alcotest.(check bool) "same class" true (Jemalloc_model.try_resize je a 112);
  Alcotest.(check bool) "larger class" false (Jemalloc_model.try_resize je a 113);
  let big = Option.get (Jemalloc_model.alloc je 10_000) in
  Alcotest.(check bool) "within span" true (Jemalloc_model.try_resize je big (3 * page));
  Alcotest.(check bool) "beyond span" false (Jemalloc_model.try_resize je big ((3 * page) + 1))

let test_pk_realloc_in_place_keeps_address () =
  let m, pk = fresh_pk () in
  let a = Option.get (Pkalloc.alloc_trusted pk 100) in
  Sim.Machine.write_u64 m a 5;
  Alcotest.(check (option int)) "in-place realloc" (Some a) (Pkalloc.realloc pk a 110);
  Alcotest.(check int) "data intact" 5 (Sim.Machine.read_u64 m a)

(* --- pkalloc failpoints, quarantine and OOM paths --- *)

let test_pk_failpoint_one_shot () =
  let _, pk = fresh_pk () in
  Pkalloc.fail_nth_alloc pk `Trusted 2;
  Alcotest.(check bool) "first alloc unaffected" true (Pkalloc.alloc_trusted pk 32 <> None);
  Alcotest.(check bool) "second alloc fails" true (Pkalloc.alloc_trusted pk 32 = None);
  Alcotest.(check bool) "failpoint disarmed after firing" true
    (Pkalloc.alloc_trusted pk 32 <> None);
  (* The pools' failpoints are independent counters. *)
  Pkalloc.fail_nth_alloc pk `Untrusted 1;
  Alcotest.(check bool) "MT untouched by the MU failpoint" true
    (Pkalloc.alloc_trusted pk 32 <> None);
  Alcotest.(check bool) "MU fails immediately" true (Pkalloc.alloc_untrusted pk 32 = None);
  Alcotest.(check bool) "negative n rejected" true
    (match Pkalloc.fail_nth_alloc pk `Trusted (-1) with
    | exception Invalid_argument _ -> true
    | () -> false)

let stats_consistent (s : Alloc_stats.t) =
  s.Alloc_stats.allocs >= s.Alloc_stats.frees
  && s.Alloc_stats.bytes_allocated >= s.Alloc_stats.bytes_freed
  && Alloc_stats.live_bytes s >= 0

let test_pk_oom_keeps_stats_consistent () =
  let _, pk = fresh_pk () in
  (* Forced exhaustion on each pool in turn: the failed allocation must
     not be recorded as served, and the books stay balanced. *)
  let drive pool alloc =
    let before = (Pkalloc.trusted_stats pk).Alloc_stats.allocs in
    let before_mu = (Pkalloc.untrusted_stats pk).Alloc_stats.allocs in
    Pkalloc.fail_nth_alloc pk pool 1;
    Alcotest.(check bool) "forced OOM" true (alloc pk 64 = None);
    Alcotest.(check int) "failed MT alloc not counted" before
      (Pkalloc.trusted_stats pk).Alloc_stats.allocs;
    Alcotest.(check int) "failed MU alloc not counted" before_mu
      (Pkalloc.untrusted_stats pk).Alloc_stats.allocs;
    Alcotest.(check bool) "MT books consistent" true
      (stats_consistent (Pkalloc.trusted_stats pk));
    Alcotest.(check bool) "MU books consistent" true
      (stats_consistent (Pkalloc.untrusted_stats pk))
  in
  drive `Trusted Pkalloc.alloc_trusted;
  drive `Untrusted Pkalloc.alloc_untrusted;
  (* Both pools keep serving afterwards, and a full alloc/free cycle
     returns live bytes to where they started. *)
  let live () =
    Alloc_stats.live_bytes (Pkalloc.trusted_stats pk)
    + Alloc_stats.live_bytes (Pkalloc.untrusted_stats pk)
  in
  let before = live () in
  let t = Option.get (Pkalloc.alloc_trusted pk 128) in
  let u = Option.get (Pkalloc.alloc_untrusted pk 128) in
  Pkalloc.dealloc pk t;
  Pkalloc.dealloc pk u;
  Alcotest.(check int) "live bytes restored" before (live ())

let test_pk_realloc_copy_fault_frees_fresh_block () =
  let m, pk = fresh_pk () in
  let a = Option.get (Pkalloc.alloc_trusted pk 32) in
  Sim.Machine.write_u64 m a 4242;
  let frees_before = (Pkalloc.trusted_stats pk).Alloc_stats.frees in
  (* Deny the trusted key so the grow-copy's read faults mid-realloc
     (there is no SEGV handler on this machine, so the fault is fatal to
     the copy).  realloc must fail cleanly: fresh block released,
     original untouched. *)
  Sim.Cpu.set_pkru m.Sim.Machine.cpu (Mpk.Pkru.all_disabled_except []);
  Alcotest.(check (option int)) "realloc reports failure" None (Pkalloc.realloc pk a 5000);
  Sim.Cpu.set_pkru m.Sim.Machine.cpu Mpk.Pkru.all_enabled;
  Alcotest.(check int) "fresh block freed" (frees_before + 1)
    (Pkalloc.trusted_stats pk).Alloc_stats.frees;
  Alcotest.(check bool) "MT books consistent" true (stats_consistent (Pkalloc.trusted_stats pk));
  Alcotest.(check int) "original data intact" 4242 (Sim.Machine.read_u64 m a);
  (* The original allocation is still live and still resizable. *)
  let a' = Option.get (Pkalloc.realloc pk a 5000) in
  Alcotest.(check int) "data survives the eventual move" 4242 (Sim.Machine.read_u64 m a');
  Pkalloc.dealloc pk a'

let test_pk_quarantine_table () =
  let _, pk = fresh_pk () in
  Alcotest.(check int) "empty" 0 (Pkalloc.quarantined_count pk);
  Pkalloc.quarantine_site pk "alloc<1:2:3>";
  Pkalloc.quarantine_site pk "alloc<1:2:3>";
  Pkalloc.quarantine_site pk "alloc<0:0:9>";
  Alcotest.(check int) "idempotent insert" 2 (Pkalloc.quarantined_count pk);
  Alcotest.(check bool) "member" true (Pkalloc.site_quarantined pk "alloc<1:2:3>");
  Alcotest.(check bool) "non-member" false (Pkalloc.site_quarantined pk "alloc<9:9:9>");
  Alcotest.(check (list string)) "sorted listing" [ "alloc<0:0:9>"; "alloc<1:2:3>" ]
    (Pkalloc.quarantined_sites pk)

let prop_dl_resize_preserves_invariants =
  QCheck.Test.make ~count:20 ~name:"dlmalloc: try_resize keeps heap invariants"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Util.Rng.create seed in
      let m, dl = fresh_dl () in
      ignore m;
      let live = ref [] in
      for _ = 1 to 250 do
        match Util.Rng.int rng 4 with
        | 0 | 1 ->
          (match Dlmalloc_model.alloc dl (1 + Util.Rng.int rng 800) with
          | Some a -> live := a :: !live
          | None -> ())
        | 2 when !live <> [] ->
          let idx = Util.Rng.int rng (List.length !live) in
          Dlmalloc_model.free dl (List.nth !live idx);
          live := List.filteri (fun i _ -> i <> idx) !live
        | _ when !live <> [] ->
          let idx = Util.Rng.int rng (List.length !live) in
          ignore (Dlmalloc_model.try_resize dl (List.nth !live idx) (1 + Util.Rng.int rng 1200))
        | _ -> ()
      done;
      match Dlmalloc_model.check_heap dl with
      | Ok () -> true
      | Error msg -> QCheck.Test.fail_report msg)

let suite =
  [
    Alcotest.test_case "pool bump + recycle" `Quick test_pool_bump_and_recycle;
    Alcotest.test_case "pool exhaustion" `Quick test_pool_exhaustion;
    Alcotest.test_case "pool contains" `Quick test_pool_contains;
    Alcotest.test_case "size-class ladder" `Quick test_size_class_ladder;
    QCheck_alcotest.to_alcotest prop_size_class_fits;
    Alcotest.test_case "jemalloc round-trip" `Quick test_je_basic_roundtrip;
    Alcotest.test_case "jemalloc slot reuse" `Quick test_je_slot_reuse;
    Alcotest.test_case "jemalloc large" `Quick test_je_large;
    Alcotest.test_case "jemalloc errors" `Quick test_je_errors;
    Alcotest.test_case "jemalloc exhaustion" `Quick test_je_exhaustion;
    QCheck_alcotest.to_alcotest prop_je_no_overlap;
    Alcotest.test_case "dlmalloc round-trip" `Quick test_dl_basic_roundtrip;
    Alcotest.test_case "dlmalloc coalescing" `Quick test_dl_coalescing;
    Alcotest.test_case "dlmalloc errors" `Quick test_dl_errors;
    Alcotest.test_case "dlmalloc corruption detection" `Quick test_dl_detects_corruption;
    Alcotest.test_case "dlmalloc slower than jemalloc" `Quick test_dl_is_slower_than_je;
    QCheck_alcotest.to_alcotest prop_dl_heap_invariants;
    QCheck_alcotest.to_alcotest prop_dl_payload_integrity;
    Alcotest.test_case "pkalloc pools disjoint + tagged" `Quick test_pk_pools_disjoint_and_tagged;
    Alcotest.test_case "pkalloc dealloc dispatch" `Quick test_pk_dealloc_dispatch;
    Alcotest.test_case "pkalloc realloc stays in pool" `Quick test_pk_realloc_stays_in_pool;
    Alcotest.test_case "pkalloc realloc shrink" `Quick test_pk_realloc_shrink;
    Alcotest.test_case "pkalloc %MU" `Quick test_pk_percent_untrusted;
    Alcotest.test_case "pkalloc MU-jemalloc ablation" `Quick test_pk_mu_jemalloc_ablation;
    Alcotest.test_case "dlmalloc resize in place" `Quick test_dl_resize_in_place;
    Alcotest.test_case "jemalloc resize in place" `Quick test_je_resize_in_place;
    Alcotest.test_case "pkalloc in-place realloc" `Quick test_pk_realloc_in_place_keeps_address;
    Alcotest.test_case "pkalloc failpoint one-shot" `Quick test_pk_failpoint_one_shot;
    Alcotest.test_case "pkalloc OOM stats consistent" `Quick test_pk_oom_keeps_stats_consistent;
    Alcotest.test_case "pkalloc realloc copy-fault cleanup" `Quick
      test_pk_realloc_copy_fault_frees_fresh_block;
    Alcotest.test_case "pkalloc quarantine table" `Quick test_pk_quarantine_table;
  ]
