(* Tests for the virtual-memory model: reservations, demand paging,
   protection and pkey changes. *)

let page = Vmm.Layout.page_size
let key = Mpk.Pkey.of_int

let fresh () = Vmm.Page_table.create ()

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let expect_error = function
  | Ok _ -> Alcotest.fail "expected an error"
  | Error _ -> ()

let test_reserve_and_demand_page () =
  let pt = fresh () in
  ok (Vmm.Page_table.reserve pt ~base:(16 * page) ~size:(8 * page) ~prot:Vmm.Prot.read_write ~pkey:(key 1));
  Alcotest.(check int) "nothing resident yet" 0 (Vmm.Page_table.resident_pages pt);
  Alcotest.(check bool) "reserved" true (Vmm.Page_table.is_reserved pt (17 * page));
  (match Vmm.Page_table.lookup pt ((17 * page) + 5) with
  | Some p -> Alcotest.(check int) "pkey" 1 (Mpk.Pkey.to_int p.Vmm.Page.pkey)
  | None -> Alcotest.fail "lookup failed");
  Alcotest.(check int) "one resident page" 1 (Vmm.Page_table.resident_pages pt);
  Alcotest.(check int) "one demand fault" 1 (Vmm.Page_table.demand_faults pt);
  (* Second touch of the same page is free. *)
  ignore (Vmm.Page_table.lookup pt (17 * page));
  Alcotest.(check int) "still one demand fault" 1 (Vmm.Page_table.demand_faults pt)

let test_lookup_unmapped () =
  let pt = fresh () in
  Alcotest.(check bool) "unmapped" true (Vmm.Page_table.lookup pt 0x1234 = None)

let test_reserve_overlap_rejected () =
  let pt = fresh () in
  ok (Vmm.Page_table.reserve pt ~base:0 ~size:(4 * page) ~prot:Vmm.Prot.read_write ~pkey:(key 0));
  expect_error
    (Vmm.Page_table.reserve pt ~base:(2 * page) ~size:(4 * page) ~prot:Vmm.Prot.read_write ~pkey:(key 0));
  (* Adjacent is fine. *)
  ok (Vmm.Page_table.reserve pt ~base:(4 * page) ~size:page ~prot:{ Vmm.Prot.read = true; write = false; execute = false } ~pkey:(key 0))

let test_reserve_validation () =
  let pt = fresh () in
  expect_error (Vmm.Page_table.reserve pt ~base:123 ~size:page ~prot:Vmm.Prot.read_write ~pkey:(key 0));
  expect_error (Vmm.Page_table.reserve pt ~base:0 ~size:0 ~prot:Vmm.Prot.read_write ~pkey:(key 0));
  expect_error
    (Vmm.Page_table.reserve pt ~base:0 ~size:page
       ~prot:{ Vmm.Prot.read = true; write = true; execute = true }
       ~pkey:(key 0))

let test_map_now () =
  let pt = fresh () in
  ok (Vmm.Page_table.map_now pt ~base:(page * 100) ~size:(3 * page) ~prot:Vmm.Prot.read_write ~pkey:(key 2));
  Alcotest.(check int) "all resident" 3 (Vmm.Page_table.resident_pages pt);
  Alcotest.(check int) "no demand faults" 0 (Vmm.Page_table.demand_faults pt)

let test_pkey_mprotect () =
  let pt = fresh () in
  ok (Vmm.Page_table.map_now pt ~base:0 ~size:(2 * page) ~prot:Vmm.Prot.read_write ~pkey:(key 0));
  ok (Vmm.Page_table.pkey_mprotect pt ~base:0 ~size:(2 * page) (key 7));
  (match Vmm.Page_table.lookup pt page with
  | Some p -> Alcotest.(check int) "retagged" 7 (Mpk.Pkey.to_int p.Vmm.Page.pkey)
  | None -> Alcotest.fail "lookup");
  expect_error (Vmm.Page_table.pkey_mprotect pt ~base:(100 * page) ~size:page (key 1))

let test_pkey_mprotect_applies_to_future_pages () =
  let pt = fresh () in
  ok (Vmm.Page_table.reserve pt ~base:0 ~size:(4 * page) ~prot:Vmm.Prot.read_write ~pkey:(key 0));
  ok (Vmm.Page_table.pkey_mprotect pt ~base:0 ~size:(4 * page) (key 3));
  (match Vmm.Page_table.lookup pt (3 * page) with
  | Some p -> Alcotest.(check int) "late page gets new key" 3 (Mpk.Pkey.to_int p.Vmm.Page.pkey)
  | None -> Alcotest.fail "lookup")

let test_mprotect () =
  let pt = fresh () in
  ok (Vmm.Page_table.map_now pt ~base:0 ~size:page ~prot:Vmm.Prot.read_write ~pkey:(key 0));
  ok (Vmm.Page_table.mprotect pt ~base:0 ~size:page { Vmm.Prot.read = true; write = false; execute = false });
  (match Vmm.Page_table.lookup pt 0 with
  | Some p -> Alcotest.(check bool) "read-only now" false p.Vmm.Page.prot.Vmm.Prot.write
  | None -> Alcotest.fail "lookup");
  expect_error
    (Vmm.Page_table.mprotect pt ~base:0 ~size:page
       { Vmm.Prot.read = true; write = true; execute = true })

(* Regions are held sorted and binary-searched: reserve many regions out
   of order and check point lookups, overlap rejection at both neighbours,
   range updates and the mapping epoch. *)
let test_many_regions_sorted_lookup () =
  let pt = fresh () in
  let bases = [ 90; 10; 50; 30; 70; 20; 60; 0; 40; 80 ] in
  List.iter
    (fun b ->
      ok
        (Vmm.Page_table.reserve pt ~base:(b * page) ~size:page ~prot:Vmm.Prot.read_write
           ~pkey:(key 0)))
    bases;
  let e0 = pt.Vmm.Page_table.epoch in
  (* Every reserved page resolves; the gaps in between do not. *)
  List.iter
    (fun b ->
      Alcotest.(check bool)
        (Printf.sprintf "base %d mapped" b)
        true
        (Vmm.Page_table.lookup pt ((b * page) + 7) <> None);
      Alcotest.(check bool)
        (Printf.sprintf "gap after %d unmapped" b)
        true
        (Vmm.Page_table.lookup pt ((b + 1) * page) = None))
    bases;
  (* Overlap with either neighbour of the insertion point is rejected. *)
  expect_error
    (Vmm.Page_table.reserve pt ~base:(50 * page) ~size:page ~prot:Vmm.Prot.read_write
       ~pkey:(key 0));
  (* A range update touches exactly the regions it covers. *)
  ok (Vmm.Page_table.pkey_mprotect pt ~base:(30 * page) ~size:page (key 5));
  (match Vmm.Page_table.lookup pt (30 * page) with
  | Some p -> Alcotest.(check int) "retagged" 5 (Mpk.Pkey.to_int p.Vmm.Page.pkey)
  | None -> Alcotest.fail "lookup");
  (match Vmm.Page_table.lookup pt (40 * page) with
  | Some p -> Alcotest.(check int) "neighbour untouched" 0 (Mpk.Pkey.to_int p.Vmm.Page.pkey)
  | None -> Alcotest.fail "lookup");
  Alcotest.(check bool) "mapping changes bump the epoch" true (pt.Vmm.Page_table.epoch > e0)

let test_prot_wx () =
  expect_error (Vmm.Prot.validate { Vmm.Prot.read = true; write = true; execute = true });
  ignore (ok (Vmm.Prot.validate { Vmm.Prot.read = true; write = false; execute = true }))

let test_layout_helpers () =
  Alcotest.(check bool) "secret in trusted" true (Vmm.Layout.in_trusted Vmm.Layout.secret_addr);
  Alcotest.(check bool) "secret not untrusted" false (Vmm.Layout.in_untrusted Vmm.Layout.secret_addr);
  Alcotest.(check int) "page round-trip" (42 * page)
    (Vmm.Layout.addr_of_page (Vmm.Layout.page_of_addr ((42 * page) + 7)));
  Alcotest.(check int) "offset" 7 (Vmm.Layout.page_offset ((42 * page) + 7))

let prop_page_of_addr_consistent =
  QCheck.Test.make ~count:500 ~name:"page_of_addr/addr_of_page/page_offset consistent"
    QCheck.(make Gen.(int_bound 0x3FFF_FFFF_FFFF))
    (fun addr ->
      Vmm.Layout.addr_of_page (Vmm.Layout.page_of_addr addr) + Vmm.Layout.page_offset addr
      = addr)

let test_fault_printing () =
  let f = { Vmm.Fault.addr = 0x1000; access = Vmm.Fault.Write; kind = Vmm.Fault.Pkey_violation (key 1) } in
  Alcotest.(check string) "to_string" "fault: SEGV_PKUERR(key=1) on write at 0x1000"
    (Vmm.Fault.to_string f)

let test_pkey_syscalls () =
  let pk = Vmm.Pkeys.create () in
  (* Lowest-first allocation. *)
  (match Vmm.Pkeys.pkey_alloc pk with
  | Ok k -> Alcotest.(check int) "first key" 1 (Mpk.Pkey.to_int k)
  | Error e -> Alcotest.fail e);
  Alcotest.(check (result unit string)) "allocated" (Error "EBUSY") (Vmm.Pkeys.reserve pk (key 1));
  (* Exhaustion after 15 keys: none was allocated at creation. *)
  for k = 2 to 15 do
    match Vmm.Pkeys.pkey_alloc pk with
    | Ok got -> Alcotest.(check int) "next key" k (Mpk.Pkey.to_int got)
    | Error e -> Alcotest.fail e
  done;
  (match Vmm.Pkeys.pkey_alloc pk with
  | Error "ENOSPC" -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected ENOSPC");
  (* Free and reuse. *)
  ok (Vmm.Pkeys.pkey_free pk (key 7));
  (match Vmm.Pkeys.pkey_alloc pk with
  | Ok k -> Alcotest.(check int) "freed key reused" 7 (Mpk.Pkey.to_int k)
  | Error e -> Alcotest.fail e);
  (* Error paths. *)
  expect_error (Vmm.Pkeys.pkey_free pk (key 0));
  ok (Vmm.Pkeys.pkey_free pk (key 7));
  expect_error (Vmm.Pkeys.pkey_free pk (key 7));
  expect_error (Vmm.Pkeys.reserve pk (key 1));
  expect_error (Vmm.Pkeys.reserve pk (key 0));
  ok (Vmm.Pkeys.reserve pk (key 7))

let test_pkalloc_claims_its_key () =
  let m = Sim.Machine.create () in
  let _pk =
    match Allocators.Pkalloc.create m with
    | Ok pk -> pk
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (result unit string)) "key 1 claimed" (Error "EBUSY")
    (Vmm.Pkeys.reserve m.Sim.Machine.pkeys (key 1));
  (* A second pkalloc on the same machine cannot claim the same key. *)
  match Allocators.Pkalloc.create m with
  | Error msg -> Alcotest.(check bool) "EBUSY surfaced" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "second claim of key 1 should fail"

let suite =
  [
    Alcotest.test_case "reserve + demand page" `Quick test_reserve_and_demand_page;
    Alcotest.test_case "lookup unmapped" `Quick test_lookup_unmapped;
    Alcotest.test_case "overlap rejected" `Quick test_reserve_overlap_rejected;
    Alcotest.test_case "reserve validation" `Quick test_reserve_validation;
    Alcotest.test_case "map_now" `Quick test_map_now;
    Alcotest.test_case "pkey_mprotect" `Quick test_pkey_mprotect;
    Alcotest.test_case "pkey_mprotect future pages" `Quick test_pkey_mprotect_applies_to_future_pages;
    Alcotest.test_case "mprotect" `Quick test_mprotect;
    Alcotest.test_case "many regions sorted lookup" `Quick test_many_regions_sorted_lookup;
    Alcotest.test_case "W^X rejected" `Quick test_prot_wx;
    Alcotest.test_case "layout helpers" `Quick test_layout_helpers;
    QCheck_alcotest.to_alcotest prop_page_of_addr_consistent;
    Alcotest.test_case "fault printing" `Quick test_fault_printing;
    Alcotest.test_case "pkey syscalls" `Quick test_pkey_syscalls;
    Alcotest.test_case "pkalloc claims its key" `Quick test_pkalloc_claims_its_key;
  ]
