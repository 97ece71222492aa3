(* Tests for the simulated machine: checked accesses, MPK enforcement,
   signal chaining and the single-step (trap flag) mechanism. *)

let page = Vmm.Layout.page_size
let key = Mpk.Pkey.of_int

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

(* A machine with one RW region at [base] tagged with pkey 1. *)
let machine_with_region ?(pkey = key 1) ?(pages = 4) ~base () =
  let m = Sim.Machine.create () in
  ok (Vmm.Page_table.reserve m.Sim.Machine.page_table ~base ~size:(pages * page)
        ~prot:Vmm.Prot.read_write ~pkey);
  m

let base = 0x10_0000

let test_rw_roundtrip_widths () =
  let m = machine_with_region ~pkey:(key 0) ~base () in
  Sim.Machine.write_u8 m base 0xAB;
  Sim.Machine.write_u16 m (base + 8) 0xBEEF;
  Sim.Machine.write_u32 m (base + 16) 0xDEADBEEF;
  Sim.Machine.write_u64 m (base + 24) 0x1234_5678_9ABC;
  Alcotest.(check int) "u8" 0xAB (Sim.Machine.read_u8 m base);
  Alcotest.(check int) "u16" 0xBEEF (Sim.Machine.read_u16 m (base + 8));
  Alcotest.(check int) "u32" 0xDEADBEEF (Sim.Machine.read_u32 m (base + 16));
  Alcotest.(check int) "u64" 0x1234_5678_9ABC (Sim.Machine.read_u64 m (base + 24))

let test_straddling_access () =
  let m = machine_with_region ~pkey:(key 0) ~base () in
  let addr = base + page - 3 in
  Sim.Machine.write_u64 m addr 0x0102_0304_0506_0708;
  Alcotest.(check int) "straddle round-trip" 0x0102_0304_0506_0708 (Sim.Machine.read_u64 m addr);
  Alcotest.(check int) "low byte" 0x08 (Sim.Machine.read_u8 m addr);
  Alcotest.(check int) "crossing byte" 0x05 (Sim.Machine.read_u8 m (addr + 3))

(* A 64-bit word moves as a 7-byte access and a 1-byte access, the way
   the engine stores its NaN-boxed slots.  These two compose them the way
   the machine's former f64 accessors did, from and to a float's bits:
   the reference the slot path must match. *)
let write_f64 m addr f =
  let bits = Int64.bits_of_float f in
  Sim.Machine.write_u56 m addr Int64.(to_int (logand bits 0xFF_FFFF_FFFF_FFFFL));
  Sim.Machine.write_u8 m (addr + 7) Int64.(to_int (logand (shift_right_logical bits 56) 0xFFL))

let read_f64 m addr =
  let low = Sim.Machine.read_u56 m addr in
  let high = Sim.Machine.read_u8 m (addr + 7) in
  Int64.float_of_bits Int64.(logor (of_int low) (shift_left (of_int high) 56))

let test_f64_roundtrip () =
  let m = machine_with_region ~pkey:(key 0) ~base () in
  List.iter
    (fun f ->
      write_f64 m base f;
      Alcotest.(check (float 0.0)) "f64" f (read_f64 m base))
    [ 0.0; 1.5; -3.25; 1e300; -1e-300; Float.max_float ]

let prop_f64_roundtrip =
  QCheck.Test.make ~count:300 ~name:"f64 machine round-trip" QCheck.float (fun f ->
      let m = machine_with_region ~pkey:(key 0) ~base () in
      write_f64 m base f;
      let f' = read_f64 m base in
      Int64.bits_of_float f = Int64.bits_of_float f')

(* The 7-byte width must lay out and read back exactly the little-endian
   bytes of the bit pattern, in-page and page-straddling. *)
let prop_f64_byte_layout =
  QCheck.Test.make ~count:300 ~name:"f64 7+1-byte layout" QCheck.(pair float (int_bound 15))
    (fun (f, off) ->
      let m = machine_with_region ~pkey:(key 0) ~base () in
      let bits = Int64.bits_of_float f in
      let byte i = Int64.(to_int (logand (shift_right_logical bits (8 * i)) 0xFFL)) in
      List.for_all
        (fun addr ->
          write_f64 m addr f;
          let laid_out = List.init 8 (fun i -> Sim.Machine.read_u8 m (addr + i)) in
          List.iteri (fun i _ -> Sim.Machine.write_u8 m (addr + 8 + i) (byte i)) laid_out;
          laid_out = List.init 8 byte
          && Int64.bits_of_float (read_f64 m (addr + 8)) = bits
          && Sim.Machine.read_u56 m addr = Int64.to_int bits land 0xFF_FFFF_FFFF_FFFF)
        [ base + off; base + page - 16 + off ])

let test_bytes_helpers () =
  let m = machine_with_region ~pkey:(key 0) ~base () in
  Sim.Machine.write_string m base "hello, pkru";
  Alcotest.(check string) "string round-trip" "hello, pkru"
    (Bytes.to_string (Sim.Machine.read_bytes m base 11));
  Sim.Machine.memset m base 'z' 5;
  Alcotest.(check string) "memset" "zzzzz, pkru" (Bytes.to_string (Sim.Machine.read_bytes m base 11))

let test_unmapped_faults () =
  let m = Sim.Machine.create () in
  (match Sim.Machine.read_u8 m 0xdead000 with
  | exception Vmm.Fault.Unhandled f ->
    Alcotest.(check bool) "maperr" true (f.Vmm.Fault.kind = Vmm.Fault.Not_mapped)
  | _ -> Alcotest.fail "expected fault")

let test_prot_violation () =
  let m = Sim.Machine.create () in
  ok (Vmm.Page_table.reserve m.Sim.Machine.page_table ~base ~size:page ~prot:{ Vmm.Prot.read = true; write = false; execute = false }
        ~pkey:(key 0));
  ignore (Sim.Machine.read_u8 m base);
  match Sim.Machine.write_u8 m base 1 with
  | exception Vmm.Fault.Unhandled f ->
    Alcotest.(check bool) "accerr" true (f.Vmm.Fault.kind = Vmm.Fault.Prot_violation)
  | _ -> Alcotest.fail "expected fault"

let test_pkey_enforcement () =
  let m = machine_with_region ~base () in
  (* pkey 1 region; PKRU initially allows everything. *)
  Sim.Machine.write_u64 m base 42;
  (* Drop access to key 1: both read and write must fault. *)
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_disabled_except [];
  (match Sim.Machine.read_u64 m base with
  | exception Vmm.Fault.Unhandled { Vmm.Fault.kind = Vmm.Fault.Pkey_violation k; _ } ->
    Alcotest.(check int) "key" 1 (Mpk.Pkey.to_int k)
  | _ -> Alcotest.fail "read should fault");
  (* Write-disable only: read succeeds, write faults. *)
  m.Sim.Machine.cpu.Sim.Cpu.pkru <-
    Mpk.Pkru.set_rights Mpk.Pkru.all_enabled (key 1) Mpk.Pkru.Disable_write;
  Alcotest.(check int) "read-only read" 42 (Sim.Machine.read_u64 m base);
  match Sim.Machine.write_u64 m base 7 with
  | exception Vmm.Fault.Unhandled { Vmm.Fault.kind = Vmm.Fault.Pkey_violation _; _ } -> ()
  | _ -> Alcotest.fail "write should fault"

let test_probe_does_not_fault_or_charge () =
  let m = machine_with_region ~base () in
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_disabled_except [];
  ignore (Vmm.Page_table.lookup m.Sim.Machine.page_table base);
  let before = Sim.Machine.cycles m in
  Alcotest.(check bool) "denied" true
    (Sim.Machine.probe m Vmm.Fault.Read base = Some (Vmm.Fault.Pkey_violation (key 1)));
  Alcotest.(check bool) "unmapped probe" true
    (Sim.Machine.probe m Vmm.Fault.Read 0xdd000 = Some Vmm.Fault.Not_mapped);
  Alcotest.(check int) "no cycles charged" before (Sim.Machine.cycles m)

let test_handler_retry_semantics () =
  let m = machine_with_region ~base () in
  Sim.Machine.write_u64 m base 99;
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_disabled_except [];
  let seen = ref [] in
  Sim.Signals.register_segv m.Sim.Machine.signals (fun f ->
      seen := f :: !seen;
      (* Fix up PKRU so the retried access succeeds. *)
      m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_enabled;
      Sim.Signals.Retry);
  Alcotest.(check int) "access retried after fixup" 99 (Sim.Machine.read_u64 m base);
  Alcotest.(check int) "handler ran once" 1 (List.length !seen)

let test_handler_chain_pass () =
  let m = machine_with_region ~base () in
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_disabled_except [];
  let first_ran = ref false in
  let second_ran = ref false in
  (* Registered first = application handler; runs last. *)
  Sim.Signals.register_segv m.Sim.Machine.signals (fun _ ->
      first_ran := true;
      m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_enabled;
      Sim.Signals.Retry);
  (* Registered second = profiler; sees the fault first, passes non-MPK. *)
  Sim.Signals.register_segv m.Sim.Machine.signals (fun f ->
      second_ran := true;
      match f.Vmm.Fault.kind with
      | Vmm.Fault.Pkey_violation _ -> Sim.Signals.Pass
      | _ -> Sim.Signals.Pass);
  ignore (Sim.Machine.read_u8 m base);
  Alcotest.(check bool) "late handler first" true !second_ran;
  Alcotest.(check bool) "passed to earlier handler" true !first_ran

let test_handler_kill () =
  let m = machine_with_region ~base () in
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_disabled_except [];
  Sim.Signals.register_segv m.Sim.Machine.signals (fun _ -> Sim.Signals.Kill "policy violation");
  match Sim.Machine.read_u8 m base with
  | exception Sim.Signals.Process_killed msg ->
    Alcotest.(check string) "message" "policy violation" msg
  | _ -> Alcotest.fail "expected kill"

(* With three handlers installed, the chain runs newest-first; Pass moves
   to the next-older handler and the oldest one's Kill wins.  The
   traversal order is what the mitigator/profiler stacking relies on. *)
let test_handler_chain_kill_order () =
  let m = machine_with_region ~base () in
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_disabled_except [];
  let order = ref [] in
  let passer name _ =
    order := name :: !order;
    Sim.Signals.Pass
  in
  Sim.Signals.register_segv m.Sim.Machine.signals (fun _ ->
      order := "app" :: !order;
      Sim.Signals.Kill "app enforcement");
  Sim.Signals.register_segv m.Sim.Machine.signals (passer "middle");
  Sim.Signals.register_segv m.Sim.Machine.signals (passer "late");
  (match Sim.Machine.read_u8 m base with
  | exception Sim.Signals.Process_killed msg ->
    Alcotest.(check string) "kill message" "app enforcement" msg
  | _ -> Alcotest.fail "expected the earliest handler's Kill");
  Alcotest.(check (list string)) "reverse registration order" [ "late"; "middle"; "app" ]
    (List.rev !order)

let test_unregister_segv_pops_newest () =
  let m = machine_with_region ~base () in
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_disabled_except [];
  let late_ran = ref false in
  Sim.Signals.register_segv m.Sim.Machine.signals (fun _ -> Sim.Signals.Kill "early");
  Sim.Signals.register_segv m.Sim.Machine.signals (fun _ ->
      late_ran := true;
      Sim.Signals.Kill "late");
  Alcotest.(check int) "two installed" 2
    (Sim.Signals.segv_handler_count m.Sim.Machine.signals);
  Alcotest.(check bool) "unregister pops" true
    (Sim.Signals.unregister_segv m.Sim.Machine.signals);
  (match Sim.Machine.read_u8 m base with
  | exception Sim.Signals.Process_killed msg -> Alcotest.(check string) "early wins" "early" msg
  | _ -> Alcotest.fail "expected kill");
  Alcotest.(check bool) "popped handler never ran" false !late_ran;
  Alcotest.(check bool) "pop remaining" true
    (Sim.Signals.unregister_segv m.Sim.Machine.signals);
  Alcotest.(check bool) "empty chain refuses" false
    (Sim.Signals.unregister_segv m.Sim.Machine.signals)

let test_reorder_segv_chain () =
  let m = machine_with_region ~base () in
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_disabled_except [];
  let order = ref [] in
  let tracer name verdict _ =
    order := name :: !order;
    verdict
  in
  Sim.Signals.register_segv m.Sim.Machine.signals (tracer "a" (Sim.Signals.Kill "a"));
  Sim.Signals.register_segv m.Sim.Machine.signals (tracer "b" Sim.Signals.Pass);
  (* Head is b; reversing makes a (the Kill) run first. *)
  Sim.Signals.reorder_segv m.Sim.Machine.signals List.rev;
  (match Sim.Machine.read_u8 m base with
  | exception Sim.Signals.Process_killed _ -> ()
  | _ -> Alcotest.fail "expected kill");
  Alcotest.(check (list string)) "reordered traversal" [ "a" ] (List.rev !order)

let test_last_fault_recorded () =
  let m = machine_with_region ~base () in
  Alcotest.(check bool) "no fault yet" true (Sim.Signals.last_fault m.Sim.Machine.signals = None);
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_disabled_except [];
  Sim.Signals.register_segv m.Sim.Machine.signals (fun _ ->
      m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_enabled;
      Sim.Signals.Retry);
  ignore (Sim.Machine.read_u8 m (base + 24));
  match Sim.Signals.last_fault m.Sim.Machine.signals with
  | Some (f, hart) ->
    Alcotest.(check int) "fault address kept" (base + 24) f.Vmm.Fault.addr;
    Alcotest.(check int) "faulting hart recorded" m.Sim.Machine.cpu.Sim.Cpu.id hart
  | None -> Alcotest.fail "expected last_fault to be recorded"

(* SIGTRAP with an empty handler chain is fatal, and the kill message
   carries the debugging context: chain depth and the last SEGV. *)
let test_trap_without_handler_reports_context () =
  let m = machine_with_region ~base () in
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_disabled_except [];
  Sim.Signals.register_segv m.Sim.Machine.signals (fun _ ->
      m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_enabled;
      m.Sim.Machine.cpu.Sim.Cpu.trap_flag <- true;
      Sim.Signals.Retry);
  match Sim.Machine.read_u8 m base with
  | exception Sim.Signals.Process_killed msg ->
    let contains needle =
      let nh = String.length msg and nn = String.length needle in
      let rec scan i = i + nn <= nh && (String.sub msg i nn = needle || scan (i + 1)) in
      scan 0
    in
    Alcotest.(check bool) "mentions chain depth" true
      (contains "segv handler chain depth 1");
    Alcotest.(check bool) "mentions the faulting access" true (contains "SEGV_PKUERR")
  | _ -> Alcotest.fail "expected SIGTRAP with no handler to kill the process"

let test_single_step_trap () =
  let m = machine_with_region ~base () in
  Sim.Machine.write_u64 m base 7;
  let restricted = Mpk.Pkru.all_disabled_except [] in
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- restricted;
  let trap_fired = ref false in
  Sim.Signals.register_trap m.Sim.Machine.signals (fun () ->
      trap_fired := true;
      (* Restore the restricted view, like the profiler's SIGTRAP handler. *)
      m.Sim.Machine.cpu.Sim.Cpu.pkru <- restricted);
  Sim.Signals.register_segv m.Sim.Machine.signals (fun f ->
      match f.Vmm.Fault.kind with
      | Vmm.Fault.Pkey_violation _ ->
        (* Temporarily open the compartment and single-step the access. *)
        m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_enabled;
        m.Sim.Machine.cpu.Sim.Cpu.trap_flag <- true;
        Sim.Signals.Retry
      | _ -> Sim.Signals.Pass);
  Alcotest.(check int) "access completes" 7 (Sim.Machine.read_u64 m base);
  Alcotest.(check bool) "trap fired after access" true !trap_fired;
  Alcotest.(check bool) "pkru restored" true
    (Mpk.Pkru.equal m.Sim.Machine.cpu.Sim.Cpu.pkru restricted);
  (* A second access faults again: the protection really was restored. *)
  match Sim.Machine.write_u64 m base 8 with
  | exception Vmm.Fault.Unhandled _ -> Alcotest.fail "handler chain still installed"
  | _ ->
    (* The segv handler opens it again, so this succeeds too; but the trap
       fired a second time. *)
    Alcotest.(check bool) "still restored" true
      (Mpk.Pkru.equal m.Sim.Machine.cpu.Sim.Cpu.pkru restricted)

(* A handler that keeps returning Retry without fixing the cause exhausts
   the retry bound (64 deliveries, also when a retry re-checks the page it
   holds); the resulting exception must carry the kind of the fault that
   was actually delivered, not a made-up one. *)
let test_retry_exhaustion_reports_pkey_kind () =
  let m = machine_with_region ~base () in
  Sim.Machine.write_u64 m base 1;
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_disabled_except [];
  let delivered = ref 0 in
  Sim.Signals.register_segv m.Sim.Machine.signals (fun _ ->
      incr delivered;
      Sim.Signals.Retry);
  match Sim.Machine.read_u64 m base with
  | exception Vmm.Fault.Unhandled { Vmm.Fault.kind = Vmm.Fault.Pkey_violation k; _ } ->
    Alcotest.(check int) "actual fault kind survives" 1 (Mpk.Pkey.to_int k);
    Alcotest.(check int) "retry bound" 64 !delivered
  | exception Vmm.Fault.Unhandled f ->
    Alcotest.failf "wrong kind: %s" (Vmm.Fault.to_string f)
  | _ -> Alcotest.fail "expected exhaustion"

let test_retry_exhaustion_reports_not_mapped () =
  let m = Sim.Machine.create () in
  Sim.Signals.register_segv m.Sim.Machine.signals (fun _ -> Sim.Signals.Retry);
  match Sim.Machine.read_u8 m 0xbad000 with
  | exception Vmm.Fault.Unhandled { Vmm.Fault.kind = Vmm.Fault.Not_mapped; _ } -> ()
  | exception Vmm.Fault.Unhandled f ->
    Alcotest.failf "wrong kind: %s" (Vmm.Fault.to_string f)
  | _ -> Alcotest.fail "expected exhaustion"

let test_wrpkru_charges_and_counts () =
  let m = Sim.Machine.create () in
  let c0 = Sim.Machine.cycles m in
  Sim.Cpu.wrpkru m.Sim.Machine.cpu (Mpk.Pkru.all_disabled_except []);
  Alcotest.(check int) "cycles" (c0 + Sim.Cost.default.Sim.Cost.wrpkru) (Sim.Machine.cycles m);
  Alcotest.(check int) "retired" 1 m.Sim.Machine.cpu.Sim.Cpu.wrpkru_retired

let test_priv_access_bypasses_pkru () =
  let m = machine_with_region ~base () in
  Sim.Machine.write_u64 m base 1234;
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_disabled_except [];
  let before = Sim.Machine.cycles m in
  Alcotest.(check int) "priv read" 1234 (Sim.Machine.priv_read_u64 m base);
  Sim.Machine.priv_write_u64 m base 777;
  Alcotest.(check int) "priv write" 777 (Sim.Machine.priv_read_u64 m base);
  Alcotest.(check int) "no cycles" before (Sim.Machine.cycles m)

let test_demand_page_charges () =
  let m = machine_with_region ~pkey:(key 0) ~base () in
  let c0 = Sim.Machine.cycles m in
  ignore (Sim.Machine.read_u8 m base);
  let first_touch = Sim.Machine.cycles m - c0 in
  let c1 = Sim.Machine.cycles m in
  ignore (Sim.Machine.read_u8 m base);
  let second_touch = Sim.Machine.cycles m - c1 in
  Alcotest.(check bool) "first touch pays the soft fault" true
    (first_touch = second_touch + Sim.Cost.default.Sim.Cost.soft_page_fault)

let suite =
  [
    Alcotest.test_case "read/write widths" `Quick test_rw_roundtrip_widths;
    Alcotest.test_case "page-straddling access" `Quick test_straddling_access;
    Alcotest.test_case "f64 round-trip" `Quick test_f64_roundtrip;
    QCheck_alcotest.to_alcotest prop_f64_roundtrip;
    QCheck_alcotest.to_alcotest prop_f64_byte_layout;
    Alcotest.test_case "bytes helpers" `Quick test_bytes_helpers;
    Alcotest.test_case "unmapped access faults" `Quick test_unmapped_faults;
    Alcotest.test_case "prot violation" `Quick test_prot_violation;
    Alcotest.test_case "pkey enforcement" `Quick test_pkey_enforcement;
    Alcotest.test_case "probe side-effect free" `Quick test_probe_does_not_fault_or_charge;
    Alcotest.test_case "handler retry" `Quick test_handler_retry_semantics;
    Alcotest.test_case "handler chain pass" `Quick test_handler_chain_pass;
    Alcotest.test_case "handler kill" `Quick test_handler_kill;
    Alcotest.test_case "handler chain: kill order" `Quick test_handler_chain_kill_order;
    Alcotest.test_case "unregister pops newest" `Quick test_unregister_segv_pops_newest;
    Alcotest.test_case "reorder chain" `Quick test_reorder_segv_chain;
    Alcotest.test_case "last fault recorded" `Quick test_last_fault_recorded;
    Alcotest.test_case "trap without handler: context" `Quick
      test_trap_without_handler_reports_context;
    Alcotest.test_case "single-step trap" `Quick test_single_step_trap;
    Alcotest.test_case "retry exhaustion: pkey kind" `Quick test_retry_exhaustion_reports_pkey_kind;
    Alcotest.test_case "retry exhaustion: not mapped" `Quick test_retry_exhaustion_reports_not_mapped;
    Alcotest.test_case "wrpkru cost" `Quick test_wrpkru_charges_and_counts;
    Alcotest.test_case "privileged access" `Quick test_priv_access_bypasses_pkru;
    Alcotest.test_case "demand page cost" `Quick test_demand_page_charges;
  ]
