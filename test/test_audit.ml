(* Tests for the cross-compartment provenance auditor: a planted MT
   pointer in U-visible memory is attributed to exactly its allocation
   site (interior pointers included, dangling values excluded), seed
   workloads come back leak-free, promotion routes confirmed-leaking
   sites to MU, and the chaos harness carries the audit as an invariant. *)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

(* An enforcement env with an empty profile: nothing moves to MU, so an
   Env.alloc lands in MT — the leak we plant. *)
let leak_env () =
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Mpk)) in
  Pkru_safe.Env.track_census env;
  env

let scan env =
  Audit.scan
    ~metadata:(Option.get (Pkru_safe.Env.census_metadata env))
    (Pkru_safe.Env.pkalloc env)

let test_planted_leak_attributed () =
  let env = leak_env () in
  let machine = Pkru_safe.Env.machine env in
  let pkalloc = Pkru_safe.Env.pkalloc env in
  let site = Runtime.Alloc_id.make ~func_id:7 ~block_id:3 ~call_id:1 in
  let mt_addr = Pkru_safe.Env.alloc env ~site 64 in
  Alcotest.(check bool) "planted object lives in MT" true
    (Allocators.Pkalloc.pool_of_addr pkalloc mt_addr = Some `Trusted);
  (* Clean slate: before anything is written, U reaches nothing. *)
  Alcotest.(check bool) "leak-free before the plant" true (Audit.leak_free (scan env));
  let mu_buf = Pkru_safe.Env.malloc_untrusted env 64 in
  (* Base pointer and an interior pointer into the same object. *)
  Sim.Machine.priv_write_u64 machine mu_buf mt_addr;
  Sim.Machine.priv_write_u64 machine (mu_buf + 8) (mt_addr + 16);
  (* A dangling value: a freed MT object is not a leak. *)
  let dead_site = Runtime.Alloc_id.make ~func_id:7 ~block_id:3 ~call_id:2 in
  let dead = Pkru_safe.Env.alloc env ~site:dead_site 32 in
  Sim.Machine.priv_write_u64 machine (mu_buf + 16) dead;
  Pkru_safe.Env.dealloc env dead;
  let report = scan env in
  Alcotest.(check bool) "leak detected" false (Audit.leak_free report);
  Alcotest.(check int) "two pointer words found" 2 (List.length report.Audit.findings);
  Alcotest.(check int) "exactly one leaking site" 1 (List.length report.Audit.sites);
  let s = List.hd report.Audit.sites in
  Alcotest.(check string) "attributed to the planted site"
    (Runtime.Alloc_id.to_string site) s.Audit.s_site;
  Alcotest.(check int) "one distinct object" 1 s.Audit.s_objects;
  Alcotest.(check int) "two referencing words" 2 s.Audit.s_refs;
  Alcotest.(check int) "leaked bytes = object size" 64 s.Audit.s_bytes;
  List.iter
    (fun (f : Audit.finding) ->
      Alcotest.(check int) "finding base" mt_addr f.Audit.f_obj_base;
      Alcotest.(check bool) "pointer word lies in the MU buffer" true
        (f.Audit.f_ptr_addr >= mu_buf && f.Audit.f_ptr_addr < mu_buf + 64))
    report.Audit.findings;
  (* An untraced run corroborates nothing: the leak is latent. *)
  let attr = Telemetry.Attribution.of_sink (Telemetry.Sink.create ()) in
  let rows =
    List.filter
      (fun l -> String.starts_with ~prefix:(Runtime.Alloc_id.to_string site) (String.trim l))
      (String.split_on_char '\n' (Audit.render ~attribution:attr report))
  in
  Alcotest.(check (list bool)) "uncorroborated by an empty trace" [ true ]
    (List.map (fun l -> String.ends_with ~suffix:"latent" (String.trim l)) rows)

let test_promote_routes_future_allocs_to_mu () =
  let env = leak_env () in
  let machine = Pkru_safe.Env.machine env in
  let pkalloc = Pkru_safe.Env.pkalloc env in
  let site = Runtime.Alloc_id.make ~func_id:9 ~block_id:1 ~call_id:4 in
  let mt_addr = Pkru_safe.Env.alloc env ~site 48 in
  let mu_buf = Pkru_safe.Env.malloc_untrusted env 16 in
  Sim.Machine.priv_write_u64 machine mu_buf mt_addr;
  let report = scan env in
  let promoted = Audit.promote pkalloc report in
  Alcotest.(check (list string)) "leaking site quarantined"
    [ Runtime.Alloc_id.to_string site ]
    promoted;
  Alcotest.(check bool) "site-override table updated" true
    (Allocators.Pkalloc.site_quarantined pkalloc (Runtime.Alloc_id.to_string site));
  (* Future allocations from the site are served from MU; the live object
     keeps its pool (the provenance invariant). *)
  let fresh = Pkru_safe.Env.alloc env ~site 48 in
  Alcotest.(check bool) "future allocation lands in MU" true
    (Allocators.Pkalloc.pool_of_addr pkalloc fresh = Some `Untrusted);
  Alcotest.(check bool) "existing object stays in MT" true
    (Allocators.Pkalloc.pool_of_addr pkalloc mt_addr = Some `Trusted);
  Alcotest.(check (list string)) "re-promotion is a no-op" []
    (Audit.promote pkalloc report);
  (* Convergence on a fresh image carrying the quarantine: the same
     allocation now starts in MU, so the scan comes back leak-free. *)
  let env2 = leak_env () in
  let pkalloc2 = Pkru_safe.Env.pkalloc env2 in
  List.iter
    (Allocators.Pkalloc.quarantine_site pkalloc2)
    (Allocators.Pkalloc.quarantined_sites pkalloc);
  let addr2 = Pkru_safe.Env.alloc env2 ~site 48 in
  let mu_buf2 = Pkru_safe.Env.malloc_untrusted env2 16 in
  Sim.Machine.priv_write_u64 (Pkru_safe.Env.machine env2) mu_buf2 addr2;
  Alcotest.(check bool) "converged image is leak-free" true (Audit.leak_free (scan env2))

(* No false positives: seed workloads, run end to end under enforcement
   with their real profiles, must come back leak-free. *)
let test_seed_workloads_leak_free () =
  let benches =
    [
      Workloads.Bench_def.bench ~page:(Workloads.Dom_scripts.page ~rows:4) "audit-dom-attr"
        (Workloads.Dom_scripts.dom_attr ~iters:8);
      Workloads.Bench_def.bench ~page:(Workloads.Dom_scripts.page ~rows:4) "audit-dom-create"
        (Workloads.Dom_scripts.dom_create ~iters:6);
      Workloads.Bench_def.bench "audit-richards" (Workloads.Kernels.richards ~iterations:12);
      Workloads.Bench_def.bench "audit-fft" (Workloads.Kernels.fft ~n:64);
    ]
  in
  List.iter
    (fun (bench : Workloads.Bench_def.bench) ->
      let profile =
        Workloads.Runner.profile_suite
          { Workloads.Bench_def.suite_name = "audit"; benches = [ bench ] }
      in
      let env =
        ok (Pkru_safe.Env.create ~profile (Pkru_safe.Config.make Pkru_safe.Config.Mpk))
      in
      Pkru_safe.Env.track_census env;
      let browser = Browser.create ~engine_seed:bench.Workloads.Bench_def.engine_seed env in
      Browser.load_page browser bench.Workloads.Bench_def.page;
      ignore (Browser.exec_script browser bench.Workloads.Bench_def.script);
      let report = scan env in
      Alcotest.(check bool)
        (bench.Workloads.Bench_def.name ^ " scans pages")
        true
        (report.Audit.scanned_pages > 0);
      Alcotest.(check bool)
        (bench.Workloads.Bench_def.name ^ " leak-free")
        true (Audit.leak_free report))
    benches

(* The scan itself is architecturally invisible: machine cycles and the
   demand-fault count are unchanged by running it. *)
let test_scan_is_pure () =
  let env = leak_env () in
  let site = Runtime.Alloc_id.make ~func_id:2 ~block_id:2 ~call_id:2 in
  let _ = Pkru_safe.Env.alloc env ~site 64 in
  let machine = Pkru_safe.Env.machine env in
  let cycles_before = Sim.Machine.cycles machine in
  let r1 = scan env in
  let r2 = scan env in
  Alcotest.(check int) "no cycles charged" cycles_before (Sim.Machine.cycles machine);
  Alcotest.(check bool) "deterministic" true (r1 = r2)

let test_report_renders () =
  let env = leak_env () in
  let machine = Pkru_safe.Env.machine env in
  let site = Runtime.Alloc_id.make ~func_id:5 ~block_id:0 ~call_id:9 in
  let mt_addr = Pkru_safe.Env.alloc env ~site 32 in
  let mu_buf = Pkru_safe.Env.malloc_untrusted env 16 in
  Sim.Machine.priv_write_u64 machine mu_buf mt_addr;
  let report = scan env in
  let parsed = Util.Json.of_string (Util.Json.to_string (Audit.to_json report)) in
  Alcotest.(check int) "findings_total" 1
    (Util.Json.to_int (Util.Json.member "findings_total" parsed));
  Alcotest.(check bool) "leak_free field" false
    (match Util.Json.member "leak_free" parsed with
    | Util.Json.Bool b -> b
    | _ -> Alcotest.fail "leak_free not a bool");
  let contains haystack needle =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "render names the site" true
    (contains (Audit.render report) (Runtime.Alloc_id.to_string site));
  Alcotest.(check bool) "prometheus exports findings" true
    (contains (Audit.prometheus report) "pkru_audit_findings_total")

(* The chaos harness carries "no MT object reachable from U" as an
   invariant: a fully-profiled scenario must report a leak-free audit. *)
let test_chaos_carries_audit_invariant () =
  let r =
    Chaos.run ~scenario:Chaos.Pkalloc_oom ~policy:Runtime.Mitigator.Emulate ~seed:3 ()
  in
  Alcotest.(check bool) "audit leak-free" true r.Chaos.audit_leak_free;
  Alcotest.(check (list (pair string int))) "no audit findings" [] r.Chaos.audit_findings;
  Alcotest.(check (list string)) "invariants hold" [] r.Chaos.invariant_failures

let suite =
  [
    Alcotest.test_case "planted leak attributed to its site" `Quick
      test_planted_leak_attributed;
    Alcotest.test_case "promote routes future allocs to MU" `Quick
      test_promote_routes_future_allocs_to_mu;
    Alcotest.test_case "seed workloads leak-free" `Quick test_seed_workloads_leak_free;
    Alcotest.test_case "scan is pure" `Quick test_scan_is_pure;
    Alcotest.test_case "report renders" `Quick test_report_renders;
    Alcotest.test_case "chaos carries audit invariant" `Quick
      test_chaos_carries_audit_invariant;
  ]
