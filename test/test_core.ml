(* End-to-end tests of the core environment: the four build modes and the
   full profile -> enforce cycle on machine memory. *)

let site = Runtime.Alloc_id.synthetic

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let env ?profile mode = ok (Pkru_safe.Env.create ?profile (Pkru_safe.Config.make mode))

let test_base_mode_everything_trusted_pool_no_gates () =
  let e = env Pkru_safe.Config.Base in
  let m = Pkru_safe.Env.machine e in
  let a = Pkru_safe.Env.alloc e ~site:(site 1) 64 in
  Alcotest.(check bool) "fast-pool allocation" true (Vmm.Layout.in_trusted a);
  Pkru_safe.Env.ffi_call e (fun () ->
      (* No gates: U code still sees everything in a base build. *)
      Sim.Machine.write_u64 m a 7);
  Alcotest.(check int) "no transitions" 0 (Pkru_safe.Env.transitions e);
  Alcotest.(check int) "value written" 7 (Sim.Machine.read_u64 m a)

let test_profiling_records_cross_compartment_flow () =
  let e = env Pkru_safe.Config.Profiling in
  let m = Pkru_safe.Env.machine e in
  let shared = Pkru_safe.Env.alloc e ~site:(site 1) 64 in
  let private_ = Pkru_safe.Env.alloc e ~site:(site 2) 64 in
  Sim.Machine.write_u64 m shared 123;
  Sim.Machine.write_u64 m private_ 456;
  Pkru_safe.Env.ffi_call e (fun () -> ignore (Sim.Machine.read_u64 m shared));
  let p = Pkru_safe.Env.recorded_profile e in
  Alcotest.(check bool) "shared site recorded" true (Runtime.Profile.mem p (site 1));
  Alcotest.(check bool) "private site not recorded" false (Runtime.Profile.mem p (site 2))

let test_profiling_tracks_realloc_provenance () =
  let e = env Pkru_safe.Config.Profiling in
  let m = Pkru_safe.Env.machine e in
  let a = Pkru_safe.Env.alloc e ~site:(site 9) 32 in
  let b = Pkru_safe.Env.realloc e a 4096 in
  Alcotest.(check bool) "moved" true (a <> b);
  Pkru_safe.Env.ffi_call e (fun () -> ignore (Sim.Machine.read_u64 m b));
  Alcotest.(check bool) "original site recorded through realloc" true
    (Runtime.Profile.mem (Pkru_safe.Env.recorded_profile e) (site 9))

let test_enforcement_blocks_unprofiled_access () =
  let empty = Runtime.Profile.create () in
  let e = env ~profile:empty Pkru_safe.Config.Mpk in
  let m = Pkru_safe.Env.machine e in
  let a = Pkru_safe.Env.alloc e ~site:(site 1) 64 in
  Sim.Machine.write_u64 m a 5;
  match Pkru_safe.Env.ffi_call e (fun () -> Sim.Machine.read_u64 m a) with
  | exception Vmm.Fault.Unhandled { Vmm.Fault.kind = Vmm.Fault.Pkey_violation _; _ } -> ()
  | v -> Alcotest.fail (Printf.sprintf "read should crash, got %d" v)

let test_full_profile_then_enforce_cycle () =
  (* Stage 1: profile a program that shares site 1 but not site 2. *)
  let prof_env = env Pkru_safe.Config.Profiling in
  let m = Pkru_safe.Env.machine prof_env in
  let run env m =
    let shared = Pkru_safe.Env.alloc env ~site:(site 1) 64 in
    let private_ = Pkru_safe.Env.alloc env ~site:(site 2) 64 in
    Sim.Machine.write_u64 m shared 1000;
    Sim.Machine.write_u64 m private_ 2000;
    let got = Pkru_safe.Env.ffi_call env (fun () -> Sim.Machine.read_u64 m shared) in
    (got, shared, private_)
  in
  let got, _, _ = run prof_env m in
  Alcotest.(check int) "profiling run sees data" 1000 got;
  let profile = Pkru_safe.Env.recorded_profile prof_env in
  (* Stage 2: rebuild in enforcement mode with that profile. *)
  let mpk_env = env ~profile Pkru_safe.Config.Mpk in
  let m2 = Pkru_safe.Env.machine mpk_env in
  let got2, shared2, private2 = run mpk_env m2 in
  Alcotest.(check int) "enforced run still works" 1000 got2;
  Alcotest.(check bool) "shared site now in MU" true (Vmm.Layout.in_untrusted shared2);
  Alcotest.(check bool) "private site still in MT" true (Vmm.Layout.in_trusted private2);
  (* And U still cannot touch the private object. *)
  (match Pkru_safe.Env.ffi_call mpk_env (fun () -> Sim.Machine.read_u64 m2 private2) with
  | exception Vmm.Fault.Unhandled _ -> ()
  | _ -> Alcotest.fail "private data leaked");
  Alcotest.(check int) "sites used" 2 (Pkru_safe.Env.sites_used mpk_env);
  Alcotest.(check int) "sites moved" 1 (Pkru_safe.Env.sites_moved mpk_env)

let test_alloc_mode_splits_without_gates () =
  let profile = Runtime.Profile.create () in
  Runtime.Profile.record profile (site 1);
  let e = env ~profile Pkru_safe.Config.Alloc in
  let a = Pkru_safe.Env.alloc e ~site:(site 1) 64 in
  let b = Pkru_safe.Env.alloc e ~site:(site 2) 64 in
  Alcotest.(check bool) "profiled site in MU" true (Vmm.Layout.in_untrusted a);
  Alcotest.(check bool) "other site in MT" true (Vmm.Layout.in_trusted b);
  Pkru_safe.Env.ffi_call e (fun () -> ());
  Alcotest.(check int) "no gates in alloc config" 0 (Pkru_safe.Env.transitions e)

(* Each site's placement is decided once and cached; the cache must
   follow both inputs of the decision.  A site the Promote mitigator
   quarantines mid-run sends its next allocation to MU, and so does a
   site recorded into the input profile after the environment exists.
   [sites_moved] keeps counting by each site's first allocation. *)
let test_site_cache_follows_quarantine_and_profile () =
  let profile = Runtime.Profile.create () in
  let config =
    Pkru_safe.Config.make ~mitigation:Runtime.Mitigator.Promote Pkru_safe.Config.Mpk
  in
  let e = ok (Pkru_safe.Env.create ~profile config) in
  let m = Pkru_safe.Env.machine e in
  let alloc n = Pkru_safe.Env.alloc e ~site:(site n) 64 in
  let a = alloc 5 in
  Alcotest.(check bool) "unprofiled site starts in MT" true (Vmm.Layout.in_trusted a);
  Alcotest.(check bool) "other site in MT" true (Vmm.Layout.in_trusted (alloc 6));
  Sim.Machine.write_u64 m a 7;
  Pkru_safe.Env.ffi_call e (fun () ->
      Alcotest.(check int) "U's access emulated" 7 (Sim.Machine.read_u64 m a));
  Alcotest.(check bool) "promoted site's next allocation in MU" true
    (Vmm.Layout.in_untrusted (alloc 5));
  Alcotest.(check bool) "unpromoted site stays in MT" true (Vmm.Layout.in_trusted (alloc 6));
  Runtime.Profile.record profile (site 6);
  Alcotest.(check bool) "site profiled after creation moves" true
    (Vmm.Layout.in_untrusted (alloc 6));
  Runtime.Profile.record profile (site 7);
  Alcotest.(check bool) "first-seen profiled site in MU" true (Vmm.Layout.in_untrusted (alloc 7));
  Alcotest.(check int) "sites used" 3 (Pkru_safe.Env.sites_used e);
  Alcotest.(check int) "sites moved at first sight" 1 (Pkru_safe.Env.sites_moved e)

let test_callback_reopens_trusted_memory () =
  let e = env ~profile:(Runtime.Profile.create ()) Pkru_safe.Config.Mpk in
  let m = Pkru_safe.Env.machine e in
  let private_ = Pkru_safe.Env.alloc e ~site:(site 1) 64 in
  Sim.Machine.write_u64 m private_ 31337;
  let via_callback = ref 0 in
  Pkru_safe.Env.ffi_call e (fun () ->
      (* U calls back into an exported T API, which may touch MT. *)
      Pkru_safe.Env.callback e (fun () -> via_callback := Sim.Machine.read_u64 m private_));
  Alcotest.(check int) "callback read MT" 31337 !via_callback;
  Alcotest.(check int) "four transitions" 4 (Pkru_safe.Env.transitions e)

let test_dealloc_dispatch_both_pools () =
  let profile = Runtime.Profile.create () in
  Runtime.Profile.record profile (site 1);
  let e = env ~profile Pkru_safe.Config.Mpk in
  let a = Pkru_safe.Env.alloc e ~site:(site 1) 128 in
  let b = Pkru_safe.Env.alloc e ~site:(site 2) 128 in
  Pkru_safe.Env.dealloc e a;
  Pkru_safe.Env.dealloc e b;
  let stats_mu = Allocators.Pkalloc.untrusted_stats (Pkru_safe.Env.pkalloc e) in
  let stats_mt = Allocators.Pkalloc.trusted_stats (Pkru_safe.Env.pkalloc e) in
  Alcotest.(check int) "MU frees" 1 stats_mu.Allocators.Alloc_stats.frees;
  Alcotest.(check int) "MT frees" 1 stats_mt.Allocators.Alloc_stats.frees

let test_realloc_keeps_pool_in_enforcement () =
  let profile = Runtime.Profile.create () in
  Runtime.Profile.record profile (site 1);
  let e = env ~profile Pkru_safe.Config.Mpk in
  let m = Pkru_safe.Env.machine e in
  let a = Pkru_safe.Env.alloc e ~site:(site 1) 32 in
  Sim.Machine.write_u64 m a 11;
  let a' = Pkru_safe.Env.realloc e a 8192 in
  Alcotest.(check bool) "still MU" true (Vmm.Layout.in_untrusted a');
  Alcotest.(check int) "payload copied" 11 (Sim.Machine.read_u64 m a');
  (* U can use the reallocated object without faulting. *)
  let v = Pkru_safe.Env.ffi_call e (fun () -> Sim.Machine.read_u64 m a') in
  Alcotest.(check int) "U reads realloc'd shared object" 11 v

let test_mode_flags () =
  Alcotest.(check bool) "base no gates" false
    (Pkru_safe.Config.gates_active (Pkru_safe.Config.make Pkru_safe.Config.Base));
  Alcotest.(check bool) "mpk gates" true
    (Pkru_safe.Config.gates_active (Pkru_safe.Config.make Pkru_safe.Config.Mpk));
  Alcotest.(check bool) "profiling unsplit" false
    (Pkru_safe.Config.split_heap (Pkru_safe.Config.make Pkru_safe.Config.Profiling));
  Alcotest.(check bool) "alloc split" true
    (Pkru_safe.Config.split_heap (Pkru_safe.Config.make Pkru_safe.Config.Alloc))

let suite =
  [
    Alcotest.test_case "base mode" `Quick test_base_mode_everything_trusted_pool_no_gates;
    Alcotest.test_case "profiling records flow" `Quick test_profiling_records_cross_compartment_flow;
    Alcotest.test_case "profiling tracks realloc" `Quick test_profiling_tracks_realloc_provenance;
    Alcotest.test_case "enforcement blocks unprofiled" `Quick test_enforcement_blocks_unprofiled_access;
    Alcotest.test_case "profile -> enforce cycle" `Quick test_full_profile_then_enforce_cycle;
    Alcotest.test_case "alloc mode splits, no gates" `Quick test_alloc_mode_splits_without_gates;
    Alcotest.test_case "site cache follows quarantine + profile" `Quick
      test_site_cache_follows_quarantine_and_profile;
    Alcotest.test_case "callback reopens MT" `Quick test_callback_reopens_trusted_memory;
    Alcotest.test_case "dealloc dispatch" `Quick test_dealloc_dispatch_both_pools;
    Alcotest.test_case "realloc keeps pool" `Quick test_realloc_keeps_pool_in_enforcement;
    Alcotest.test_case "mode flags" `Quick test_mode_flags;
  ]
