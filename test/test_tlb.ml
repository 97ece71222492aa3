(* Tests for the software TLB: architectural invisibility (cycle counts,
   fault sequences and event traces bit-identical with the TLB on or
   off), the invalidation protocol (mapping epoch, PKRU epoch, raw PKRU
   value), and the observability plumbing (machine stats, runner-injected
   sink counters, Prometheus families). *)

let page = Vmm.Layout.page_size
let key = Mpk.Pkey.of_int
let base = 0x20_0000

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

let machine_with_region ?(tlb = true) ?(pkey = key 1) ?(pages = 4) () =
  let m = Sim.Machine.create ~tlb () in
  ok
    (Vmm.Page_table.reserve m.Sim.Machine.page_table ~base ~size:(pages * page)
       ~prot:Vmm.Prot.read_write ~pkey);
  m

let trace_json sink =
  Util.Json.to_string
    (Util.Json.List (List.map Telemetry.Event.record_to_json (Telemetry.Sink.events sink)))

(* --- Architectural invisibility --- *)

(* Full-stack equivalence: the same workload under the same configuration
   must produce identical simulated cycles, gate transitions and event
   traces with the TLB on and off.  (Sink counters are excluded: the
   runner's injected tlb_* counters differ by design.)  Profiling mode
   additionally exercises the fault + single-step path. *)
let check_equivalence mode () =
  let bench =
    Workloads.Bench_def.bench ~page:(Workloads.Dom_scripts.page ~rows:6) "tlb-eq"
      (Workloads.Dom_scripts.dom_attr ~iters:12)
  in
  let suite = { Workloads.Bench_def.suite_name = "tlb-eq"; benches = [ bench ] } in
  let profile = Workloads.Runner.profile_suite suite in
  let run tlb = Workloads.Runner.run_config ~telemetry:true ~tlb ~mode ~profile bench in
  let on = run true in
  let off = run false in
  Alcotest.(check int) "cycles identical" off.Workloads.Runner.cycles on.Workloads.Runner.cycles;
  Alcotest.(check int) "transitions identical" off.Workloads.Runner.transitions
    on.Workloads.Runner.transitions;
  match (on.Workloads.Runner.trace, off.Workloads.Runner.trace) with
  | Some s_on, Some s_off ->
    Alcotest.(check int) "events_total identical" (Telemetry.Sink.events_total s_off)
      (Telemetry.Sink.events_total s_on);
    Alcotest.(check string) "event trace bit-identical" (trace_json s_off) (trace_json s_on);
    Alcotest.(check bool) "tlb-on run actually hit" true
      (Telemetry.Sink.count s_on "tlb_hit" > 0);
    Alcotest.(check int) "tlb-off run never hit" 0 (Telemetry.Sink.count s_off "tlb_hit")
  | _ -> Alcotest.fail "expected traces from both runs"

(* Machine-level equivalence on the profiler's fault + trap-flag path:
   every access faults, is single-stepped with a permissive PKRU, and the
   restrictive view is restored by the trap handler.  Cycles and the full
   event sequence must not depend on the TLB. *)
let single_step_sequence ~tlb =
  let m = machine_with_region ~tlb () in
  Sim.Machine.write_u64 m base 7;
  let restricted = Mpk.Pkru.all_disabled_except [] in
  let sink = Telemetry.Sink.create () in
  Telemetry.Ctx.with_sink m.Sim.Machine.ctx sink (fun () ->
      Sim.Cpu.set_pkru m.Sim.Machine.cpu restricted;
      Sim.Signals.register_trap m.Sim.Machine.signals (fun () ->
          Sim.Cpu.set_pkru m.Sim.Machine.cpu restricted);
      Sim.Signals.register_segv m.Sim.Machine.signals (fun f ->
          match f.Vmm.Fault.kind with
          | Vmm.Fault.Pkey_violation _ ->
            Sim.Cpu.set_pkru m.Sim.Machine.cpu Mpk.Pkru.all_enabled;
            m.Sim.Machine.cpu.Sim.Cpu.trap_flag <- true;
            Sim.Signals.Retry
          | _ -> Sim.Signals.Pass);
      for i = 0 to 7 do
        ignore (Sim.Machine.read_u64 m (base + (i mod 2 * 8)))
      done);
  (Sim.Machine.cycles m, Telemetry.Sink.events_total sink, trace_json sink)

let test_single_step_equivalence () =
  let cycles_on, events_on, trace_on = single_step_sequence ~tlb:true in
  let cycles_off, events_off, trace_off = single_step_sequence ~tlb:false in
  Alcotest.(check int) "cycles identical" cycles_off cycles_on;
  Alcotest.(check int) "events identical" events_off events_on;
  Alcotest.(check bool) "faults actually occurred" true (events_on > 0);
  Alcotest.(check string) "trace bit-identical" trace_off trace_on

(* --- Invalidation edges --- *)

let test_pkey_mprotect_invalidates () =
  let m = machine_with_region ~pkey:(key 0) () in
  Sim.Machine.write_u64 m base 11;
  Alcotest.(check int) "cached read" 11 (Sim.Machine.read_u64 m base);
  (* Retag the page under the cached translation, with a PKRU that denies
     the new key: the next access must miss and fault. *)
  ok (Vmm.Page_table.pkey_mprotect m.Sim.Machine.page_table ~base ~size:page (key 1));
  Sim.Cpu.set_pkru m.Sim.Machine.cpu (Mpk.Pkru.all_disabled_except []);
  match Sim.Machine.read_u64 m base with
  | exception Vmm.Fault.Unhandled { Vmm.Fault.kind = Vmm.Fault.Pkey_violation k; _ } ->
    Alcotest.(check int) "faults on the new key" 1 (Mpk.Pkey.to_int k)
  | _ -> Alcotest.fail "expected a pkey fault after pkey_mprotect"

let test_mprotect_invalidates () =
  let m = machine_with_region ~pkey:(key 0) () in
  Sim.Machine.write_u64 m base 5;
  ok (Vmm.Page_table.mprotect m.Sim.Machine.page_table ~base ~size:page { Vmm.Prot.read = true; write = false; execute = false });
  Alcotest.(check int) "read still fine" 5 (Sim.Machine.read_u64 m base);
  match Sim.Machine.write_u64 m base 6 with
  | exception Vmm.Fault.Unhandled { Vmm.Fault.kind = Vmm.Fault.Prot_violation; _ } -> ()
  | _ -> Alcotest.fail "expected a prot fault after mprotect"

let test_gate_pkru_rewrite_rechecks () =
  (* A call gate's WRPKRU drops the trusted key: the entry cached while
     trusted must not satisfy accesses made inside the gate. *)
  let m = machine_with_region ~pkey:(key 1) () in
  let gate = Runtime.Gate.create ~trusted_pkey:(key 1) m in
  Sim.Machine.write_u64 m base 99;
  Alcotest.(check int) "cached while trusted" 99 (Sim.Machine.read_u64 m base);
  (match
     Runtime.Gate.call_untrusted gate (fun () -> ignore (Sim.Machine.read_u64 m base))
   with
  | exception Vmm.Fault.Unhandled { Vmm.Fault.kind = Vmm.Fault.Pkey_violation k; _ } ->
    Alcotest.(check int) "trusted key denied inside gate" 1 (Mpk.Pkey.to_int k)
  | _ -> Alcotest.fail "gated access to trusted memory should fault");
  (* Back outside the gate the access works again. *)
  Alcotest.(check int) "restored after gate" 99 (Sim.Machine.read_u64 m base)

let test_direct_pkru_store_invalidates () =
  (* No epoch bump here — the raw-PKRU-value comparison must catch it. *)
  let m = machine_with_region () in
  Sim.Machine.write_u64 m base 3;
  Alcotest.(check int) "cached" 3 (Sim.Machine.read_u64 m base);
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_disabled_except [];
  match Sim.Machine.read_u64 m base with
  | exception Vmm.Fault.Unhandled { Vmm.Fault.kind = Vmm.Fault.Pkey_violation _; _ } -> ()
  | _ -> Alcotest.fail "expected a fault after a direct pkru store"

let test_trap_fires_after_tlb_hit () =
  let m = machine_with_region ~pkey:(key 0) () in
  Sim.Machine.write_u64 m base 1;
  Alcotest.(check int) "entry warmed" 1 (Sim.Machine.read_u64 m base);
  let fired = ref false in
  Sim.Signals.register_trap m.Sim.Machine.signals (fun () -> fired := true);
  m.Sim.Machine.cpu.Sim.Cpu.trap_flag <- true;
  ignore (Sim.Machine.read_u64 m base);
  Alcotest.(check bool) "trap fired on a TLB-hit access" true !fired;
  Alcotest.(check bool) "hit actually happened" true
    ((Sim.Machine.tlb_stats m).Sim.Tlb.hits > 0)

(* --- Stats and counters --- *)

let test_stats_accumulate_and_off_machine_stays_zero () =
  let m = machine_with_region ~pkey:(key 0) () in
  for _ = 1 to 10 do
    ignore (Sim.Machine.read_u64 m base)
  done;
  let s = Sim.Machine.tlb_stats m in
  Alcotest.(check bool) "hits counted" true (s.Sim.Tlb.hits >= 9);
  Alcotest.(check bool) "first access missed" true (s.Sim.Tlb.misses >= 1);
  Alcotest.(check bool) "hit rate high" true (Sim.Tlb.hit_rate s > 0.8);
  let off = machine_with_region ~tlb:false ~pkey:(key 0) () in
  for _ = 1 to 10 do
    ignore (Sim.Machine.read_u64 off base)
  done;
  Alcotest.(check bool) "tlb-off machine reports zero stats" true
    (Sim.Machine.tlb_stats off = Sim.Tlb.zero_stats);
  Alcotest.(check bool) "tlb flag readable" true
    (m.Sim.Machine.tlb_enabled && not off.Sim.Machine.tlb_enabled)

let test_cycle_accounting_sums_harts () =
  (* Machine.cycles is the sum of the hart clocks: charges and resets on
     any hart (through the machine, the CPU and a checked access) must
     keep it equal to that sum. *)
  let m = machine_with_region ~pkey:(key 0) () in
  let c1 = Sim.Machine.spawn_cpu m in
  Alcotest.(check (list int)) "hart ids, boot first" [ 0; 1 ]
    (List.map (fun c -> c.Sim.Cpu.id) (Sim.Machine.cpus m));
  let hart_sum () = List.fold_left (fun acc c -> acc + Sim.Cpu.cycles c) 0 (Sim.Machine.cpus m) in
  Sim.Machine.charge m 10;
  Sim.Cpu.charge c1 20;
  Sim.Machine.run_on m c1 (fun () ->
      Sim.Machine.write_u64 m base 1;
      ignore (Sim.Machine.read_u64 m base));
  Alcotest.(check int) "total is the hart sum" (hart_sum ()) (Sim.Machine.cycles m);
  Alcotest.(check int) "accesses charged only the hart that ran them" 10
    (Sim.Cpu.cycles m.Sim.Machine.cpu);
  Sim.Cpu.reset_cycles c1;
  Alcotest.(check int) "per-hart counter zeroed" 0 (Sim.Cpu.cycles c1);
  Alcotest.(check int) "reset drops that hart's share" 10 (Sim.Machine.cycles m);
  Sim.Cpu.charge c1 5;
  Alcotest.(check int) "total is the hart sum after a reset" (hart_sum ()) (Sim.Machine.cycles m);
  Alcotest.(check int) "and counts on from zero" 15 (Sim.Machine.cycles m)

(* TLB accounting is host-side, but it is still part of the contract:
   one fixed mpk run per tier must probe, miss and flush exactly as it
   did before the probe moved inline into Machine.  Every tier takes the
   same checked slot accesses, so the threaded tier probes exactly like
   the AST tier; only its cycle accounting differs. *)
let test_tlb_stats_pinned_per_tier () =
  let bench = ok (Workloads.Registry.bench_of_name "dom-attr") in
  let profile = Workloads.Runner.profile_bench bench in
  let stats tier =
    let m =
      Workloads.Runner.run_config ~telemetry:true ~engine_tier:tier ~mode:Pkru_safe.Config.Mpk
        ~profile bench
    in
    let sink = Option.get m.Workloads.Runner.trace in
    ( m.Workloads.Runner.cycles,
      Telemetry.Sink.count sink "tlb_hit",
      Telemetry.Sink.count sink "tlb_miss",
      Telemetry.Sink.count sink "tlb_flush" )
  in
  let pinned = Alcotest.(pair int (pair int (pair int int))) in
  let nest (c, h, m, f) = (c, (h, (m, f))) in
  let ((_, ast_h, ast_m, ast_f) as ast) = stats Engine.Ast_tier in
  Alcotest.check pinned "ast tier: cycles, hits, misses, flushes"
    (nest (182641, 20387, 3471, 1043))
    (nest ast);
  let thr_c, thr_h, thr_m, thr_f = stats Engine.Threaded_tier in
  Alcotest.(check int) "threaded tier: cycles" 182384 thr_c;
  Alcotest.(check (triple int int int))
    "threaded tier: hits, misses, flushes as on the ast tier" (ast_h, ast_m, ast_f)
    (thr_h, thr_m, thr_f)

let test_prometheus_tlb_families () =
  let sink = Telemetry.Sink.create () in
  let empty = Telemetry.Export.prometheus sink in
  Alcotest.(check bool) "hits family exposed at zero" true
    (contains empty "pkru_tlb_hits_total 0");
  Alcotest.(check bool) "flushes family exposed at zero" true
    (contains empty "pkru_tlb_flushes_total 0");
  Telemetry.Sink.incr sink ~by:5 "tlb_hit";
  Telemetry.Sink.incr sink ~by:2 "tlb_miss";
  Telemetry.Sink.incr sink ~by:1 "tlb_flush";
  let from_counters = Telemetry.Export.prometheus sink in
  Alcotest.(check bool) "hits from sink counters" true
    (contains from_counters "pkru_tlb_hits_total 5");
  Alcotest.(check bool) "misses from sink counters" true
    (contains from_counters "pkru_tlb_misses_total 2");
  let explicit = Telemetry.Export.prometheus ~tlb:(7, 3, 1) sink in
  Alcotest.(check bool) "explicit stats win" true (contains explicit "pkru_tlb_hits_total 7")

let test_runner_injects_counters () =
  let bench = Workloads.Bench_def.bench "tlb-cnt" (Workloads.Kernels.richards ~iterations:5) in
  let profile = Runtime.Profile.create () in
  let m =
    Workloads.Runner.run_config ~telemetry:true ~mode:Pkru_safe.Config.Base ~profile bench
  in
  match m.Workloads.Runner.trace with
  | None -> Alcotest.fail "expected a trace"
  | Some sink ->
    Alcotest.(check bool) "tlb_hit counter injected" true
      (Telemetry.Sink.count sink "tlb_hit" > 0);
    (* The counters ride into the summary JSON (bench --json digests). *)
    Alcotest.(check bool) "summary_json carries tlb counters" true
      (contains (Util.Json.to_string (Telemetry.Export.summary_json sink)) "tlb_hit")

let suite =
  [
    Alcotest.test_case "equivalence: mpk mode" `Quick (check_equivalence Pkru_safe.Config.Mpk);
    Alcotest.test_case "equivalence: profiling mode" `Quick
      (check_equivalence Pkru_safe.Config.Profiling);
    Alcotest.test_case "equivalence: single-step path" `Quick test_single_step_equivalence;
    Alcotest.test_case "pkey_mprotect invalidates" `Quick test_pkey_mprotect_invalidates;
    Alcotest.test_case "mprotect invalidates" `Quick test_mprotect_invalidates;
    Alcotest.test_case "gate pkru rewrite rechecks" `Quick test_gate_pkru_rewrite_rechecks;
    Alcotest.test_case "direct pkru store invalidates" `Quick test_direct_pkru_store_invalidates;
    Alcotest.test_case "trap after tlb hit" `Quick test_trap_fires_after_tlb_hit;
    Alcotest.test_case "stats + tlb-off zero" `Quick test_stats_accumulate_and_off_machine_stays_zero;
    Alcotest.test_case "cycle accounting sums harts" `Quick test_cycle_accounting_sums_harts;
    Alcotest.test_case "tlb stats pinned per tier" `Quick test_tlb_stats_pinned_per_tier;
    Alcotest.test_case "prometheus tlb families" `Quick test_prometheus_tlb_families;
    Alcotest.test_case "runner injects tlb counters" `Quick test_runner_injects_counters;
  ]
