(* The Garmr attack battery and its hardened-gate defenses: every attack
   class must leak undefended and be defeated defended; the defenses'
   unit surfaces (sigframe scrub, syscall filter, gate re-verification)
   are probed directly; and the whole battery is deterministic. *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let mk_env ?(defenses = Pkru_safe.Config.no_defenses) () =
  match Pkru_safe.Env.create (Pkru_safe.Config.make ~defenses Pkru_safe.Config.Mpk) with
  | Ok env -> env
  | Error msg -> Alcotest.fail msg

let all_on =
  {
    Pkru_safe.Config.sigframe_scrub = true;
    syscall_filter = true;
    gate_reverify = true;
  }

let seed = 7_402

(* --- The battery end-to-end ---------------------------------------------- *)

let test_undefended_attacks_leak () =
  List.iter
    (fun attack ->
      let r = Exploit.Garmr.run ~attack ~defended:false ~seed () in
      let name = Exploit.Garmr.attack_to_string attack in
      Alcotest.(check bool)
        (name ^ " leaks the secret undefended")
        true (Exploit.Garmr.succeeded r);
      Alcotest.(check (option int))
        (name ^ " leaked value") (Some Browser.secret_value) r.Exploit.Garmr.g_leaked;
      List.iteri
        (fun i outcome ->
          Alcotest.(check string)
            (Printf.sprintf "%s: victim-%d completes" name i)
            "completed" outcome)
        r.Exploit.Garmr.g_victim_outcomes)
    Exploit.Garmr.all_attacks

let test_defended_attacks_defeated () =
  List.iter
    (fun attack ->
      let r = Exploit.Garmr.run ~attack ~defended:true ~seed () in
      let name = Exploit.Garmr.attack_to_string attack in
      Alcotest.(check bool) (name ^ " defeated") true (Exploit.Garmr.defeated r);
      Alcotest.(check (option int)) (name ^ " leaks nothing") None r.Exploit.Garmr.g_leaked;
      (* The flight recorder names the attack at the point of kill. *)
      Alcotest.(check bool)
        (name ^ " has a flight dump")
        true
        (r.Exploit.Garmr.g_flight_dumps <> []);
      Alcotest.(check bool)
        (name ^ " dump names the attack")
        true
        (List.exists
           (fun d -> contains ~sub:name (Util.Json.to_string d))
           r.Exploit.Garmr.g_flight_dumps);
      (* ... and the kill or refusal is attributed to a hart. *)
      let hart_attributed =
        contains ~sub:"(hart" r.Exploit.Garmr.g_attacker_outcome
        ||
        match r.Exploit.Garmr.g_refusal with
        | Some msg -> contains ~sub:"(hart" msg
        | None -> false
      in
      Alcotest.(check bool) (name ^ " kill names a hart") true hart_attributed;
      List.iteri
        (fun i outcome ->
          Alcotest.(check string)
            (Printf.sprintf "%s: victim-%d survives the defense" name i)
            "completed" outcome)
        r.Exploit.Garmr.g_victim_outcomes)
    Exploit.Garmr.all_attacks

let test_defended_attack_mechanisms () =
  (* Each defense defeats its attack through its own mechanism. *)
  let r = Exploit.Garmr.run ~attack:Exploit.Garmr.Wrpkru_race ~defended:true ~seed () in
  Alcotest.(check bool) "wrpkru: killed by resume re-verification" true
    (r.Exploit.Garmr.g_resume_kills >= 1);
  Alcotest.(check bool) "wrpkru: kill message names the resume gate" true
    (contains ~sub:"resume gate" r.Exploit.Garmr.g_attacker_outcome);
  let r = Exploit.Garmr.run ~attack:Exploit.Garmr.Sigreturn_forge ~defended:true ~seed () in
  Alcotest.(check int) "sigreturn: scrubber blocked the forgery" 1
    r.Exploit.Garmr.g_sigreturn_blocked;
  Alcotest.(check int) "sigreturn: no forged restore took effect" 0
    r.Exploit.Garmr.g_sigreturn_forged;
  let r = Exploit.Garmr.run ~attack:Exploit.Garmr.Syscall_confusion ~defended:true ~seed () in
  Alcotest.(check bool) "syscall: the retag was refused" true r.Exploit.Garmr.g_refused;
  (match r.Exploit.Garmr.g_refusal with
  | Some msg -> Alcotest.(check bool) "syscall: refusal is EPERM" true (contains ~sub:"EPERM" msg)
  | None -> Alcotest.fail "expected a refusal message");
  (* Defense-in-depth: the desperate direct read died on the MPK check. *)
  Alcotest.(check bool) "syscall: direct read still killed" true r.Exploit.Garmr.g_killed

let test_battery_deterministic () =
  let run () =
    Util.Json.to_string
      (Exploit.Garmr.result_to_json
         (Exploit.Garmr.run ~attack:Exploit.Garmr.Wrpkru_race ~defended:true ~seed ()))
  in
  Alcotest.(check string) "identical replays" (run ()) (run ());
  (* The defended and undefended halves of one seed share every seeded
     parameter, so the pair isolates the defense under test. *)
  let details defended =
    (* [yields] is a measurement, not a seeded parameter — the defended
       attacker dies early, so only the inputs must match. *)
    List.filter
      (fun (k, _) -> k <> "yields")
      (Exploit.Garmr.run ~attack:Exploit.Garmr.Syscall_confusion ~defended ~seed ())
        .Exploit.Garmr.g_details
  in
  Alcotest.(check string) "halves share seeded parameters"
    (Util.Json.to_string (Util.Json.Obj (details false)))
    (Util.Json.to_string (Util.Json.Obj (details true)))

let test_chaos_adjudication () =
  let reports = Chaos.run_attacks ~harts:2 ~seed ()
  in
  Alcotest.(check int) "one report per attack class"
    (List.length Exploit.Garmr.all_attacks)
    (List.length reports);
  List.iter
    (fun r ->
      Alcotest.(check (list string))
        (Exploit.Garmr.attack_to_string r.Chaos.ar_attack ^ ": invariants hold")
        [] r.Chaos.ar_invariant_failures)
    reports

let test_battery_multi_hart () =
  (* More victims, same verdicts: the attack works against any number of
     benign sibling harts. *)
  let r = Exploit.Garmr.run ~harts:4 ~attack:Exploit.Garmr.Wrpkru_race ~defended:false ~seed () in
  Alcotest.(check bool) "undefended leaks at 4 harts" true (Exploit.Garmr.succeeded r);
  Alcotest.(check int) "three victims" 3 (List.length r.Exploit.Garmr.g_victim_outcomes);
  let r = Exploit.Garmr.run ~harts:4 ~attack:Exploit.Garmr.Wrpkru_race ~defended:true ~seed () in
  Alcotest.(check bool) "defended defeated at 4 harts" true (Exploit.Garmr.defeated r);
  List.iter
    (fun o -> Alcotest.(check string) "victims complete at 4 harts" "completed" o)
    r.Exploit.Garmr.g_victim_outcomes;
  match
    Exploit.Garmr.run ~harts:1 ~attack:Exploit.Garmr.Wrpkru_race ~defended:false ~seed ()
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected harts < 2 to be rejected"

(* --- Gate re-verification ------------------------------------------------- *)

(* Benign programs park mid-gate (resident in U) and at top level; the
   re-verification on every resume must pass — zero kills, and with the
   defense off, zero checks (the probe is invisible). *)
let test_reverify_no_false_positives () =
  let run defenses =
    let env = mk_env ~defenses () in
    let machine = Pkru_safe.Env.machine env in
    let program i =
      {
        Fleet.p_name = Printf.sprintf "benign-%d" i;
        p_body =
          (fun ~yield ->
            for _ = 1 to 3 do
              let addr = Pkru_safe.Env.malloc_untrusted env 64 in
              Pkru_safe.Env.ffi_call env (fun () ->
                  Sim.Machine.write_u64 machine addr 7;
                  yield ();
                  (* mid-gate, resident in U *)
                  ignore (Sim.Machine.read_u64 machine addr));
              yield ()
              (* top level, resident in T *)
            done);
      }
    in
    Fleet.run_programs env (List.init 3 program)
  in
  let off = run Pkru_safe.Config.no_defenses in
  Alcotest.(check int) "defense off: no checks" 0 off.Fleet.b_resume_checks;
  let on = run { Pkru_safe.Config.no_defenses with gate_reverify = true } in
  Alcotest.(check bool) "defense on: resumes were checked" true (on.Fleet.b_resume_checks > 0);
  Alcotest.(check int) "defense on: no false kills" 0 on.Fleet.b_resume_kills;
  List.iter2
    (fun (a : Fleet.program_result) (b : Fleet.program_result) ->
      Alcotest.(check string) "every program completes" "completed"
        (Fleet.outcome_to_string b.Fleet.pr_outcome);
      Alcotest.(check int) "defense on charges no cycles" a.Fleet.pr_cycles b.Fleet.pr_cycles)
    off.Fleet.b_programs on.Fleet.b_programs

let test_reverify_unit () =
  let env = mk_env () in
  let machine = Pkru_safe.Env.machine env in
  let gate = Pkru_safe.Env.gate env in
  (* A fresh hart runs all-enabled and matches the gate's resident view:
     reverify passes, so the resident view starts all-enabled too. *)
  Alcotest.(check bool) "fresh hart all-enabled" true
    (Mpk.Pkru.equal machine.Sim.Machine.cpu.Sim.Cpu.pkru Mpk.Pkru.all_enabled);
  Runtime.Gate.reverify gate;
  (* Corrupt the live PKRU out from under the gate: reverify kills. *)
  Sim.Cpu.set_pkru machine.Sim.Machine.cpu (Mpk.Pkru.all_disabled_except []);
  (match Runtime.Gate.reverify ~attack:"unit-probe" gate with
  | exception Sim.Signals.Process_killed msg ->
    Alcotest.(check bool) "kill names the resume gate" true (contains ~sub:"resume gate" msg);
    Alcotest.(check bool) "kill names the hart" true (contains ~sub:"(hart" msg)
  | () -> Alcotest.fail "expected reverify to kill on a PKRU mismatch");
  Sim.Cpu.set_pkru machine.Sim.Machine.cpu Mpk.Pkru.all_enabled

(* --- Handler tampering under the fleet ------------------------------------ *)

let test_handler_tamper () =
  (* A program tampers with the SEGV handler chain (register + reorder)
     while the battery scheduler runs — benign siblings survive it. *)
  let env = mk_env () in
  let machine = Pkru_safe.Env.machine env in
  let signals = machine.Sim.Machine.signals in
  let tamperer =
    {
      Fleet.p_name = "tamperer";
      p_body =
        (fun ~yield ->
          yield ();
          Sim.Signals.register_segv signals (fun _ -> Sim.Signals.Pass);
          Sim.Signals.reorder_segv signals List.rev;
          yield ();
          ignore (Sim.Signals.unregister_segv signals));
    }
  in
  let victim =
    {
      Fleet.p_name = "victim";
      p_body =
        (fun ~yield ->
          for _ = 1 to 4 do
            let addr = Pkru_safe.Env.malloc_untrusted env 64 in
            Pkru_safe.Env.ffi_call env (fun () ->
                Sim.Machine.write_u64 machine addr 9;
                yield ();
                ignore (Sim.Machine.read_u64 machine addr));
            Allocators.Pkalloc.dealloc (Pkru_safe.Env.pkalloc env) addr
          done);
    }
  in
  let battery = Fleet.run_programs env [ victim; tamperer ] in
  List.iter
    (fun (pr : Fleet.program_result) ->
      Alcotest.(check string)
        (pr.Fleet.pr_name ^ " completes")
        "completed"
        (Fleet.outcome_to_string pr.Fleet.pr_outcome))
    battery.Fleet.b_programs;
  (* The tamperer's chain surgery left no handlers behind. *)
  Alcotest.(check int) "handler chain restored" 0 (Sim.Signals.segv_handler_count signals)

(* --- Sigframe scrubbing (unit) ------------------------------------------- *)

let region_base = 0x10_0000

let machine_with_region () =
  let m = Sim.Machine.create () in
  (match
     Vmm.Page_table.reserve m.Sim.Machine.page_table ~base:region_base
       ~size:(4 * Vmm.Layout.page_size) ~prot:Vmm.Prot.read_write ~pkey:(Mpk.Pkey.of_int 1)
   with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  m

let test_sigreturn_forgery_unit () =
  (* Scrubbing off: a tampered frame silently installs the forged PKRU
     at sigreturn and the re-executed read succeeds. *)
  let m = machine_with_region () in
  let signals = m.Sim.Machine.signals in
  Sim.Machine.write_u64 m region_base 77;
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_disabled_except [];
  Sim.Signals.register_segv signals (fun _ -> Sim.Signals.Retry);
  Sim.Signals.tamper_sigframe signals (Some Mpk.Pkru.all_enabled);
  Alcotest.(check int) "forged restore lets the read through" 77
    (Sim.Machine.read_u64 m region_base);
  Alcotest.(check int) "forgery counted" 1 (Sim.Signals.sigreturn_forged signals);
  Alcotest.(check int) "nothing blocked" 0 (Sim.Signals.sigreturn_blocked signals);
  Alcotest.(check bool) "forged PKRU installed on the hart" true
    (Mpk.Pkru.equal m.Sim.Machine.cpu.Sim.Cpu.pkru Mpk.Pkru.all_enabled)

let test_sigreturn_scrub_blocks () =
  let m = machine_with_region () in
  let signals = m.Sim.Machine.signals in
  Sim.Machine.write_u64 m region_base 77;
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_disabled_except [];
  Sim.Signals.set_sigframe_scrub signals true;
  Sim.Signals.register_segv signals (fun _ -> Sim.Signals.Retry);
  Sim.Signals.tamper_sigframe signals (Some Mpk.Pkru.all_enabled);
  (match Sim.Machine.read_u64 m region_base with
  | exception Sim.Signals.Process_killed msg ->
    Alcotest.(check bool) "kill names the forged PKRU" true (contains ~sub:"forged PKRU" msg);
    Alcotest.(check bool) "kill names the hart" true (contains ~sub:"(hart" msg)
  | v -> Alcotest.fail (Printf.sprintf "scrubbed sigreturn let the read through (%d)" v));
  Alcotest.(check int) "block counted" 1 (Sim.Signals.sigreturn_blocked signals);
  Alcotest.(check int) "no forgery took effect" 0 (Sim.Signals.sigreturn_forged signals);
  (* An untampered frame passes through the scrubber untouched. *)
  Sim.Signals.tamper_sigframe signals None;
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_enabled;
  Alcotest.(check int) "clean frames unaffected" 77 (Sim.Machine.read_u64 m region_base)

(* --- Syscall filter (unit) ------------------------------------------------ *)

let trusted = Mpk.Pkey.of_int 1

let test_syscall_filter_unit () =
  let m = machine_with_region () in
  (* Disarmed: the kernel interface forwards straight to the VMM. *)
  (match Sim.Machine.sys_pkey_mprotect m ~base:region_base ~size:Vmm.Layout.page_size trusted with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("disarmed filter refused a retag: " ^ msg));
  Sim.Machine.set_syscall_filter m (Some trusted);
  Alcotest.(check bool) "filter armed" true (Sim.Machine.syscall_filter m <> None);
  (* Trusted residency (PKRU can read the trusted key): still allowed. *)
  (match Sim.Machine.sys_pkey_mprotect m ~base:region_base ~size:Vmm.Layout.page_size trusted with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("armed filter refused a trusted retag: " ^ msg));
  (* Untrusted residency: every pkey/page-table mutation is EPERM. *)
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_disabled_except [];
  let check_refused name = function
    | Ok _ -> Alcotest.fail (name ^ ": expected EPERM from U residency")
    | Error msg ->
      Alcotest.(check bool) (name ^ " is EPERM") true (contains ~sub:"EPERM" msg);
      Alcotest.(check bool) (name ^ " names the hart") true (contains ~sub:"(hart" msg)
  in
  check_refused "pkey_mprotect"
    (Sim.Machine.sys_pkey_mprotect m ~base:region_base ~size:Vmm.Layout.page_size
       Mpk.Pkey.default);
  check_refused "mprotect"
    (Sim.Machine.sys_mprotect m ~base:region_base ~size:Vmm.Layout.page_size
       Vmm.Prot.read_write);
  check_refused "pkey_alloc" (Sim.Machine.sys_pkey_alloc m);
  check_refused "pkey_free" (Sim.Machine.sys_pkey_free m trusted);
  (* Back in T, the same requests go through again. *)
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_enabled;
  (match Sim.Machine.sys_pkey_mprotect m ~base:region_base ~size:Vmm.Layout.page_size trusted with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("post-U trusted retag refused: " ^ msg))

let test_defenses_config () =
  Alcotest.(check bool) "all_defenses arms everything" true
    (Pkru_safe.Config.all_defenses = all_on);
  (* Defaults: a plain env arms nothing. *)
  let env = mk_env () in
  let machine = Pkru_safe.Env.machine env in
  Alcotest.(check bool) "filter off by default" true (Sim.Machine.syscall_filter machine = None);
  Alcotest.(check bool) "scrub off by default" false
    (Sim.Signals.sigframe_scrub machine.Sim.Machine.signals);
  (* An armed env wires the machine-level defenses at create time. *)
  let env = mk_env ~defenses:all_on () in
  let machine = Pkru_safe.Env.machine env in
  Alcotest.(check bool) "filter armed by config" true
    (Sim.Machine.syscall_filter machine <> None);
  Alcotest.(check bool) "scrub armed by config" true
    (Sim.Signals.sigframe_scrub machine.Sim.Machine.signals)

let suite =
  [
    Alcotest.test_case "undefended attacks leak" `Quick test_undefended_attacks_leak;
    Alcotest.test_case "defended attacks defeated" `Quick test_defended_attacks_defeated;
    Alcotest.test_case "defense mechanisms" `Quick test_defended_attack_mechanisms;
    Alcotest.test_case "battery deterministic" `Quick test_battery_deterministic;
    Alcotest.test_case "chaos adjudication" `Quick test_chaos_adjudication;
    Alcotest.test_case "multi-hart battery" `Quick test_battery_multi_hart;
    Alcotest.test_case "reverify: no false positives" `Quick test_reverify_no_false_positives;
    Alcotest.test_case "reverify: unit" `Quick test_reverify_unit;
    Alcotest.test_case "handler tamper under battery" `Quick test_handler_tamper;
    Alcotest.test_case "sigreturn forgery (unit)" `Quick test_sigreturn_forgery_unit;
    Alcotest.test_case "sigreturn scrub blocks" `Quick test_sigreturn_scrub_blocks;
    Alcotest.test_case "syscall filter (unit)" `Quick test_syscall_filter_unit;
    Alcotest.test_case "defense config wiring" `Quick test_defenses_config;
  ]
