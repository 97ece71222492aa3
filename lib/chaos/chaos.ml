type scenario =
  | Coverage_gap
  | Pkalloc_oom
  | Gate_corruption
  | Handler_tamper

let all_scenarios = [ Coverage_gap; Pkalloc_oom; Gate_corruption; Handler_tamper ]

let scenario_to_string = function
  | Coverage_gap -> "coverage-gap"
  | Pkalloc_oom -> "pkalloc-oom"
  | Gate_corruption -> "gate-corruption"
  | Handler_tamper -> "handler-tamper"

let scenario_of_string = function
  | "coverage-gap" -> Some Coverage_gap
  | "pkalloc-oom" -> Some Pkalloc_oom
  | "gate-corruption" -> Some Gate_corruption
  | "handler-tamper" -> Some Handler_tamper
  | _ -> None

type report = {
  scenario : scenario;
  policy : Runtime.Mitigator.policy;
  seed : int;
  completed : bool;
  outcome : string;
  incidents : int;
  incident_outcomes : (string * int) list;
  rerun_incidents : int option;
  promoted_sites : string list;
  secret_intact : bool;
  gate_balanced : bool;
  audit_leak_free : bool;
  audit_findings : (string * int) list; (* leaking site -> referencing words *)
  invariant_failures : string list;
  details : string list;
  prometheus : string;
  flight_dumps : Util.Json.t list; (* post-mortems recorded during the scenario *)
}

let ok_exn = function
  | Ok v -> v
  | Error msg -> failwith ("Chaos: " ^ msg)

(* Every invariant-failure message carries the harness seed, so a failing
   CI log alone is enough to reproduce the run (chaos --scenario ...
   --seed N). *)
let tag_seed ~seed msg = Printf.sprintf "%s [seed %d]" msg seed

(* The injected workload: the gate-bound DOM benchmark — its binding calls
   cross the boundary in a tight loop, so a single dropped profile entry
   is exercised early and often. *)
let workload =
  Workloads.Bench_def.bench
    ~page:(Workloads.Dom_scripts.page ~rows:8)
    "gate-bound"
    (Workloads.Dom_scripts.dom_attr ~iters:120)

let profile_workload () =
  let env =
    ok_exn (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Profiling))
  in
  let browser = Browser.create ~engine_seed:workload.Workloads.Bench_def.engine_seed env in
  Browser.load_page browser workload.Workloads.Bench_def.page;
  ignore (Browser.exec_script browser workload.Workloads.Bench_def.script);
  Pkru_safe.Env.recorded_profile env

let make_env ~profile ~policy =
  ok_exn
    (Pkru_safe.Env.create ~profile
       (Pkru_safe.Config.make ~mitigation:policy Pkru_safe.Config.Mpk))

(* Drives one workload execution and classifies how it ended.  Graceful
   ends (completion, Degraded, OOM) propagate through the gates'
   Fun.protect, so the compartment stack must be balanced afterwards;
   fail-stop ends (unhandled fault, kill) freeze state at the death
   point by design. *)
type ending =
  | Completed
  | Unhandled_fault of string
  | Killed of string
  | Degraded_out of string
  | Oom

let graceful = function
  | Completed | Degraded_out _ | Oom -> true
  | Unhandled_fault _ | Killed _ -> false

let ending_to_string = function
  | Completed -> "completed"
  | Unhandled_fault msg -> "unhandled-fault: " ^ msg
  | Killed msg -> "killed: " ^ msg
  | Degraded_out msg -> "degraded: " ^ msg
  | Oom -> "oom"

let drive f =
  match f () with
  | _ -> Completed
  | exception Vmm.Fault.Unhandled fault -> Unhandled_fault (Vmm.Fault.to_string fault)
  | exception Sim.Signals.Process_killed msg -> Killed msg
  | exception Runtime.Mitigator.Degraded fault ->
    Degraded_out (Vmm.Fault.to_string fault)
  | exception Out_of_memory -> Oom

(* Invariant: the secret page is unreadable from U.  Probed through the
   real boundary — an FFI call that attempts the read with the untrusted
   view — and cross-checked with a privileged read of the planted value.
   Every legal way for the probe to end is a denial: an unhandled fault,
   a kill, or a Degraded failure; only a normal return means the wall has
   a hole. *)
let secret_unreadable_from_u env =
  let machine = Pkru_safe.Env.machine env in
  let planted =
    Sim.Machine.priv_read_u64 machine Vmm.Layout.secret_addr = Browser.secret_value
  in
  let denied =
    match
      Pkru_safe.Env.ffi_call env (fun () ->
          Sim.Machine.read_u64 machine Vmm.Layout.secret_addr)
    with
    | _ -> false
    | exception Vmm.Fault.Unhandled _ -> true
    | exception Sim.Signals.Process_killed _ -> true
    | exception Runtime.Mitigator.Degraded _ -> true
  in
  planted && denied

let gate_depth env = Runtime.Comp_stack.depth (Runtime.Gate.stack (Pkru_safe.Env.gate env))

(* Every scenario drives its workload with the flight recorder armed: a
   death inside the boundary (gate verify kill, unhandled fault, trap with
   no handler) snapshots the scenario's own sink — recent events, the
   gate tail, and the causal span chain that was open at the death. *)
let flight_for env sink =
  let recorder = Telemetry.Flight.create () in
  Telemetry.Flight.attach_sink recorder sink;
  Telemetry.Flight.set_context recorder (Pkru_safe.Env.flight_context env);
  recorder

(* The injection window is itself a causal span, so everything the
   workload does — phases, crossings, incidents — nests under it. *)
let chaos_span env sink name f =
  let machine = Pkru_safe.Env.machine env in
  let cpu = machine.Sim.Machine.cpu.Sim.Cpu.id in
  let id =
    Telemetry.Sink.span_enter sink ~ts:(Sim.Machine.cycles machine) ~cpu
      ~kind:Telemetry.Span.Chaos name
  in
  Fun.protect
    ~finally:(fun () ->
      Telemetry.Sink.span_exit sink ~ts:(Sim.Machine.cycles machine) ~cpu ~id ())
    f

let driven env sink recorder name f =
  let ctx = Pkru_safe.Env.ctx env in
  Telemetry.Ctx.with_recorder ctx recorder (fun () ->
      Telemetry.Ctx.with_sink ctx sink (fun () -> chaos_span env sink name f))

let mitigator_exn env =
  match Pkru_safe.Env.mitigator env with
  | Some m -> m
  | None -> failwith "Chaos: enforcement env has no mitigator"

(* Common post-mortem: snapshot mitigator accounting (before the secret
   probe, which itself is adjudicated), then check invariants.  Any
   invariant failure records one more flight dump so a failing chaos run
   always leaves a machine-readable post-mortem behind. *)
let finish ~scenario ~policy ~seed ~ending ~rerun_incidents ~details ~sink ~recorder ~profile
    env =
  let m = mitigator_exn env in
  let incidents = Runtime.Mitigator.incidents m in
  let incident_outcomes = Runtime.Mitigator.outcome_counts m in
  let promoted_sites = Runtime.Mitigator.promoted_sites m in
  let gate_balanced = gate_depth env = 0 in
  let secret_intact = secret_unreadable_from_u env in
  (* The provenance audit, as a first-class chaos property: conservatively
     scan every U-readable resident page for pointers into live MT
     objects.  A profiled site allocates from MU by construction, so a
     finding at an in-profile site is impossible-by-design and always an
     invariant failure; dropped-site scenarios may legitimately leave
     out-of-profile objects in MT (that gap is the scenario), but the
     fully-profiled scenarios must come back leak-free. *)
  let audit =
    Audit.scan ~metadata:(Runtime.Mitigator.metadata m) (Pkru_safe.Env.pkalloc env)
  in
  let audit_leak_free = Audit.leak_free audit in
  let audit_findings =
    List.map (fun s -> (s.Audit.s_site, s.Audit.s_refs)) audit.Audit.sites
  in
  let in_profile site =
    List.exists
      (fun id -> String.equal (Runtime.Alloc_id.to_string id) site)
      (Runtime.Profile.sites profile)
  in
  let prometheus = Telemetry.Export.prometheus sink in
  let telemetry_incidents =
    List.fold_left
      (fun acc (name, n) ->
        if String.length name > 11 && String.sub name 0 11 = "mitigation." then acc + n
        else acc)
      0 (Telemetry.Sink.counters sink)
  in
  let failures = ref [] in
  let fail msg = failures := tag_seed ~seed msg :: !failures in
  if not secret_intact then fail "secret readable from U";
  if graceful ending && not gate_balanced then
    fail (Printf.sprintf "gate stack unbalanced (depth %d) after graceful end" (gate_depth env));
  if telemetry_incidents <> incidents then
    fail
      (Printf.sprintf "telemetry mitigation counters (%d) != mitigator incidents (%d)"
         telemetry_incidents incidents);
  (match policy with
  | Runtime.Mitigator.Abort when incidents <> 0 ->
    fail "Abort policy did accounting (must stay bit-identical to seed)"
  | _ -> ());
  List.iter
    (fun (site, refs) ->
      if in_profile site then
        fail
          (Printf.sprintf
             "audit: in-profile site %s has MT objects reachable from U (%d refs)" site refs))
    audit_findings;
  (match scenario with
  | Pkalloc_oom | Gate_corruption ->
    (* The full profile was supplied, so every boundary-crossing site
       allocates from MU: nothing in MT may be reachable from U. *)
    if not audit_leak_free then
      fail
        (Printf.sprintf "audit: fully-profiled run leaks MT objects to U (%d findings)"
           (List.length audit.Audit.findings))
  | Coverage_gap | Handler_tamper -> ());
  if !failures <> [] then
    ignore
      (Telemetry.Flight.record recorder ~reason:"chaos invariant failure"
         ~details:
           [
             ("scenario", Util.Json.String (scenario_to_string scenario));
             ("policy", Util.Json.String (Runtime.Mitigator.policy_to_string policy));
             ( "failures",
               Util.Json.List (List.map (fun s -> Util.Json.String s) (List.rev !failures)) );
           ]);
  {
    scenario;
    policy;
    seed;
    completed = ending = Completed;
    outcome = ending_to_string ending;
    incidents;
    incident_outcomes;
    rerun_incidents;
    promoted_sites;
    secret_intact;
    gate_balanced;
    audit_leak_free;
    audit_findings;
    invariant_failures = List.rev !failures;
    details;
    prometheus;
    flight_dumps = Telemetry.Flight.dumps recorder;
  }

let run_script browser =
  drive (fun () -> ignore (Browser.exec_script browser workload.Workloads.Bench_def.script))

(* Remove a guaranteed number of sites: ceil(drop * cardinal), at least
   one.  Profile.subset's per-site Bernoulli draw can keep everything on
   small profiles, which would make the scenario a no-op. *)
let drop_sites full ~drop ~rng =
  let sites = Array.of_list (Runtime.Profile.sites full) in
  let n = Array.length sites in
  let to_drop = min n (max 1 (int_of_float (ceil (drop *. float_of_int n)))) in
  Util.Rng.shuffle rng sites;
  let kept = Array.sub sites to_drop (n - to_drop) in
  let profile = Runtime.Profile.create () in
  Array.iter (Runtime.Profile.record profile) kept;
  profile

let coverage_gap ~drop ~policy ~seed =
  let full = profile_workload () in
  let rng = Util.Rng.create seed in
  let profile = drop_sites full ~drop ~rng in
  let dropped = Runtime.Profile.cardinal full - Runtime.Profile.cardinal profile in
  let env = make_env ~profile ~policy in
  let browser = Browser.create ~engine_seed:workload.Workloads.Bench_def.engine_seed env in
  Browser.load_page browser workload.Workloads.Bench_def.page;
  let sink = Telemetry.Sink.create () in
  let recorder = flight_for env sink in
  let ending =
    driven env sink recorder "chaos:coverage-gap" (fun () -> run_script browser)
  in
  let m = mitigator_exn env in
  let first_incidents = Runtime.Mitigator.incidents m in
  (* Second run of the same workload on the same image: Promote's
     quarantine must have moved the hot sites to MU, so it faults
     strictly less.  Only meaningful when the first run survived. *)
  let rerun_incidents =
    if ending = Completed then begin
      let ending2 =
        driven env sink recorder "chaos:coverage-gap:rerun" (fun () -> run_script browser)
      in
      match ending2 with
      | Completed -> Some (Runtime.Mitigator.incidents m - first_incidents)
      | _ -> Some max_int (* a surviving policy must keep surviving *)
    end
    else None
  in
  let details =
    [
      Printf.sprintf "profile entries: %d of %d (dropped %d, fraction %.2f)"
        (Runtime.Profile.cardinal profile)
        (Runtime.Profile.cardinal full)
        dropped drop;
    ]
  in
  finish ~scenario:Coverage_gap ~policy ~seed ~ending ~rerun_incidents ~details ~sink ~recorder
    ~profile env

let pkalloc_oom ~oom_at ~policy ~seed =
  let profile = profile_workload () in
  let env = make_env ~profile ~policy in
  let browser = Browser.create ~engine_seed:workload.Workloads.Bench_def.engine_seed env in
  Browser.load_page browser workload.Workloads.Bench_def.page;
  let rng = Util.Rng.create seed in
  let pool = if Util.Rng.bool rng then `Trusted else `Untrusted in
  let pkalloc = Pkru_safe.Env.pkalloc env in
  Allocators.Pkalloc.fail_nth_alloc pkalloc pool oom_at;
  let sink = Telemetry.Sink.create () in
  let recorder = flight_for env sink in
  let ending = driven env sink recorder "chaos:pkalloc-oom" (fun () -> run_script browser) in
  (* Exhaustion must be a one-shot, leaving consistent books: the
     failpoint disarms after firing and both pools' counters still
     balance. *)
  let stats_consistent (s : Allocators.Alloc_stats.t) =
    s.Allocators.Alloc_stats.allocs >= s.Allocators.Alloc_stats.frees
    && s.Allocators.Alloc_stats.bytes_allocated >= s.Allocators.Alloc_stats.bytes_freed
    && Allocators.Alloc_stats.live_bytes s >= 0
  in
  let books_ok =
    stats_consistent (Allocators.Pkalloc.trusted_stats pkalloc)
    && stats_consistent (Allocators.Pkalloc.untrusted_stats pkalloc)
  in
  let recovered =
    match Allocators.Pkalloc.alloc_untrusted pkalloc 16 with
    | Some addr ->
      Allocators.Pkalloc.dealloc pkalloc addr;
      true
    | None -> false
  in
  let details =
    [
      Printf.sprintf "poisoned pool: %s, allocation #%d"
        (match pool with `Trusted -> "MT" | `Untrusted -> "MU")
        oom_at;
      Printf.sprintf "alloc-stats consistent: %b; allocator recovered: %b" books_ok recovered;
    ]
  in
  let report =
    finish ~scenario:Pkalloc_oom ~policy ~seed ~ending ~rerun_incidents:None ~details ~sink
      ~recorder ~profile env
  in
  let extra = ref [] in
  let fail msg = extra := tag_seed ~seed msg :: !extra in
  if not books_ok then fail "alloc stats inconsistent after forced OOM";
  if not recovered then fail "allocator did not recover after one-shot OOM";
  (match ending with
  | Oom | Completed -> ()
  | _ -> fail "forced OOM ended in a fault instead of Out_of_memory");
  { report with invariant_failures = report.invariant_failures @ List.rev !extra }

let gate_corruption ~policy ~seed =
  let profile = profile_workload () in
  let env = make_env ~profile ~policy in
  let browser = Browser.create ~engine_seed:workload.Workloads.Bench_def.engine_seed env in
  Browser.load_page browser workload.Workloads.Bench_def.page;
  let rng = Util.Rng.create seed in
  let variant, corrupt =
    if Util.Rng.bool rng then
      ( "grant-all (PKRU forced permissive)",
        fun (_ : Mpk.Pkru.t) -> Mpk.Pkru.all_enabled )
    else begin
      let bit = Util.Rng.int rng 32 in
      ( Printf.sprintf "bit-flip (PKRU bit %d)" bit,
        fun target -> Mpk.Pkru.of_int (Mpk.Pkru.to_int target lxor (1 lsl bit)) )
    end
  in
  let sink = Telemetry.Sink.create () in
  let recorder = flight_for env sink in
  let gate = Pkru_safe.Env.gate env in
  let ending =
    Fun.protect
      ~finally:(fun () -> Runtime.Gate.set_pkru_corruptor gate None)
      (fun () ->
        Runtime.Gate.set_pkru_corruptor gate (Some corrupt);
        driven env sink recorder ("chaos:gate-corruption:" ^ variant) (fun () ->
            run_script browser))
  in
  let details = [ "corruption: " ^ variant ] in
  let report =
    finish ~scenario:Gate_corruption ~policy ~seed ~ending ~rerun_incidents:None ~details ~sink
      ~recorder ~profile env
  in
  (* Any value-changing corruption must be caught by the gate's own
     verifying RDPKRU — the run may never complete with a corrupted
     PKRU in force. *)
  let extra =
    match ending with
    | Killed _ -> []
    | e ->
      [
        tag_seed ~seed
          (Printf.sprintf "gate corruption was not caught by the gate verify (ended: %s)"
             (ending_to_string e));
      ]
  in
  { report with invariant_failures = report.invariant_failures @ extra }

let handler_tamper ~drop ~policy ~seed =
  let full = profile_workload () in
  let rng = Util.Rng.create seed in
  let profile = drop_sites full ~drop ~rng in
  let env = make_env ~profile ~policy in
  let browser = Browser.create ~engine_seed:workload.Workloads.Bench_def.engine_seed env in
  Browser.load_page browser workload.Workloads.Bench_def.page;
  let signals = (Pkru_safe.Env.machine env).Sim.Machine.signals in
  let action, expect_fail_closed =
    match Util.Rng.int rng 3 with
    | 0 ->
      (* Drop the mitigator from the chain entirely: the next MPK fault
         finds no handler — leniency must fail closed, not open. *)
      ignore (Sim.Signals.unregister_segv signals);
      ("unregister-mitigator", true)
    | 1 ->
      (* Shadow it with a benign handler that passes every fault: the
         chain must still reach the mitigator in reverse registration
         order. *)
      Sim.Signals.register_segv signals (fun _ -> Sim.Signals.Pass);
      ("shadow-with-pass-handler", false)
    | _ ->
      Sim.Signals.register_segv signals (fun _ -> Sim.Signals.Pass);
      Sim.Signals.reorder_segv signals List.rev;
      ("reorder-chain (benign handler moved behind mitigator)", false)
  in
  let sink = Telemetry.Sink.create () in
  let recorder = flight_for env sink in
  let ending =
    driven env sink recorder ("chaos:handler-tamper:" ^ action) (fun () -> run_script browser)
  in
  let details =
    [
      "tamper: " ^ action;
      Printf.sprintf "handler chain depth after tamper: %d"
        (Sim.Signals.segv_handler_count signals);
    ]
  in
  let report =
    finish ~scenario:Handler_tamper ~policy ~seed ~ending ~rerun_incidents:None ~details ~sink
      ~recorder ~profile env
  in
  let extra =
    if expect_fail_closed && report.completed then
      [ tag_seed ~seed "workload survived with the mitigator unregistered (fail-open)" ]
    else []
  in
  { report with invariant_failures = report.invariant_failures @ extra }

let run ?(drop = 0.10) ?(oom_at = 40) ~scenario ~policy ~seed () =
  match scenario with
  | Coverage_gap -> coverage_gap ~drop ~policy ~seed
  | Pkalloc_oom -> pkalloc_oom ~oom_at ~policy ~seed
  | Gate_corruption -> gate_corruption ~policy ~seed
  | Handler_tamper -> handler_tamper ~drop ~policy ~seed

(* --- The Garmr attack battery (defended vs undefended) -------------------

   For each attack class the battery runs the same seeded scenario twice
   — defense off, defense on — and adjudicates both halves:

   - undefended, the attack MUST leak the planted secret (an attack the
     defense-off run silently stops proves nothing about the defense);
   - defended, nothing may leak AND the attacker must be killed or
     refused, with at least one flight dump naming the attack, and the
     kill/refusal attributed to a hart.

   Any violation is an invariant failure (seed-tagged, like every chaos
   failure), which the CLI turns into a non-zero exit. *)

type attack_report = {
  ar_attack : Exploit.Garmr.attack;
  ar_seed : int;
  ar_harts : int;
  ar_undefended : Exploit.Garmr.result;
  ar_defended : Exploit.Garmr.result;
  ar_invariant_failures : string list;
  ar_flight_dumps : Util.Json.t list; (* both halves, undefended first *)
}

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let run_attack ?(harts = 2) ~attack ~seed () =
  let undefended = Exploit.Garmr.run ~harts ~attack ~defended:false ~seed () in
  let defended = Exploit.Garmr.run ~harts ~attack ~defended:true ~seed () in
  let name = Exploit.Garmr.attack_to_string attack in
  let defense = Exploit.Garmr.defense_name attack in
  let failures = ref [] in
  let fail msg = failures := tag_seed ~seed msg :: !failures in
  if not (Exploit.Garmr.succeeded undefended) then
    fail
      (Printf.sprintf "undefended %s was silently stopped (attacker: %s)" name
         undefended.Exploit.Garmr.g_attacker_outcome);
  if Exploit.Garmr.succeeded defended then
    fail (Printf.sprintf "defense %s failed: %s leaked the secret" defense name);
  if not (Exploit.Garmr.defeated defended) then
    fail
      (Printf.sprintf "defended %s neither killed nor refused (attacker: %s)" name
         defended.Exploit.Garmr.g_attacker_outcome);
  (* The point-of-kill post-mortem must name the attack... *)
  let named_dump =
    List.exists
      (fun dump -> contains ~sub:name (Util.Json.to_string dump))
      defended.Exploit.Garmr.g_flight_dumps
  in
  if Exploit.Garmr.defeated defended && not named_dump then
    fail (Printf.sprintf "no flight dump names %s at the point of kill" name);
  (* ... and the kill or refusal must be attributed to a hart. *)
  let hart_attributed =
    (defended.Exploit.Garmr.g_killed
    && contains ~sub:"(hart" defended.Exploit.Garmr.g_attacker_outcome)
    ||
    match defended.Exploit.Garmr.g_refusal with
    | Some msg -> contains ~sub:"(hart" msg
    | None -> false
  in
  if Exploit.Garmr.defeated defended && not hart_attributed then
    fail (Printf.sprintf "defended %s kill/refusal not attributed to a hart" name);
  (* Benign victims are never collateral damage, defended or not. *)
  List.iter
    (fun (half, r) ->
      List.iteri
        (fun i outcome ->
          if outcome <> "completed" then
            fail (Printf.sprintf "%s %s: victim-%d did not complete (%s)" half name i outcome))
        r.Exploit.Garmr.g_victim_outcomes)
    [ ("undefended", undefended); ("defended", defended) ];
  {
    ar_attack = attack;
    ar_seed = seed;
    ar_harts = harts;
    ar_undefended = undefended;
    ar_defended = defended;
    ar_invariant_failures = List.rev !failures;
    ar_flight_dumps =
      undefended.Exploit.Garmr.g_flight_dumps @ defended.Exploit.Garmr.g_flight_dumps;
  }

let run_attacks ?harts ?(attacks = Exploit.Garmr.all_attacks) ~seed () =
  List.mapi (fun i attack -> run_attack ?harts ~attack ~seed:(seed + (101 * i)) ()) attacks

let attack_report_to_json r =
  let open Util.Json in
  Obj
    [
      ("attack", String (Exploit.Garmr.attack_to_string r.ar_attack));
      ("defense", String (Exploit.Garmr.defense_name r.ar_attack));
      ("seed", Int r.ar_seed);
      ("harts", Int r.ar_harts);
      ("undefended", Exploit.Garmr.result_to_json r.ar_undefended);
      ("defended", Exploit.Garmr.result_to_json r.ar_defended);
      ("invariant_failures", List (List.map (fun s -> String s) r.ar_invariant_failures));
      ("flight_dumps", List r.ar_flight_dumps);
    ]

let pp_attack_report fmt r =
  let half label (g : Exploit.Garmr.result) =
    Format.fprintf fmt "@.    %-10s leaked=%-6s killed=%-5b refused=%-5b %s" label
      (match g.Exploit.Garmr.g_leaked with
      | Some v -> string_of_int v
      | None -> "none")
      g.Exploit.Garmr.g_killed g.Exploit.Garmr.g_refused g.Exploit.Garmr.g_attacker_outcome
  in
  Format.fprintf fmt "%-18s defense=%-15s seed=%-6d harts=%d %s"
    (Exploit.Garmr.attack_to_string r.ar_attack)
    (Exploit.Garmr.defense_name r.ar_attack)
    r.ar_seed r.ar_harts
    (if r.ar_invariant_failures = [] then "invariants ok"
     else "INVARIANT FAILURES: " ^ String.concat "; " r.ar_invariant_failures);
  half "undefended" r.ar_undefended;
  half "defended" r.ar_defended

let report_to_json r =
  let open Util.Json in
  Obj
    [
      ("scenario", String (scenario_to_string r.scenario));
      ("policy", String (Runtime.Mitigator.policy_to_string r.policy));
      ("seed", Int r.seed);
      ("completed", Bool r.completed);
      ("outcome", String r.outcome);
      ("incidents", Int r.incidents);
      ( "incident_outcomes",
        Obj (List.map (fun (name, n) -> (name, Int n)) r.incident_outcomes) );
      ( "rerun_incidents",
        match r.rerun_incidents with Some n -> Int n | None -> Null );
      ("promoted_sites", List (List.map (fun s -> String s) r.promoted_sites));
      ("secret_intact", Bool r.secret_intact);
      ("gate_balanced", Bool r.gate_balanced);
      ("audit_leak_free", Bool r.audit_leak_free);
      ( "audit_findings",
        Obj (List.map (fun (site, refs) -> (site, Int refs)) r.audit_findings) );
      ("invariant_failures", List (List.map (fun s -> String s) r.invariant_failures));
      ("details", List (List.map (fun s -> String s) r.details));
      ("flight_dumps", List r.flight_dumps);
    ]

let pp_report fmt r =
  Format.fprintf fmt "%-15s %-8s seed=%-6d %-9s incidents=%-3d %s"
    (scenario_to_string r.scenario)
    (Runtime.Mitigator.policy_to_string r.policy)
    r.seed
    (if r.completed then "completed" else "died")
    r.incidents
    (if r.invariant_failures = [] then "invariants ok"
     else "INVARIANT FAILURES: " ^ String.concat "; " r.invariant_failures);
  (match r.rerun_incidents with
  | Some n -> Format.fprintf fmt " rerun-incidents=%d" n
  | None -> ());
  if not r.audit_leak_free then
    Format.fprintf fmt " audit-findings=%d"
      (List.fold_left (fun acc (_, refs) -> acc + refs) 0 r.audit_findings);
  if r.flight_dumps <> [] then
    Format.fprintf fmt " flight-dumps=%d" (List.length r.flight_dumps);
  if r.outcome <> "completed" then Format.fprintf fmt "@.    %s" r.outcome
