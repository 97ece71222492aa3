(* The bench regression sentinel.

   A small fixed set of probe workloads, each deterministic in simulated
   cycles, run against a checked-in baseline (BENCH_BASELINE.json).  The
   comparison rules follow what the simulator guarantees:

   simulated cycles and gate transitions are deterministic, so ANY drift
   against the baseline is a real behavioural change (a perf regression
   or an unacknowledged improvement) and fails exactly.  Host time is
   not the sentinel's business: it is machine-dependent, and perfbench
   measures it under a repeated-trial protocol.

   The baseline file is schema-versioned and stamped with the commit that
   produced it, so `bench --compare` output can always say what it was
   diffed against. *)

let schema_version = "pkru-safe.bench-baseline/1"

type probe_result = {
  p_name : string;
  p_tier : string;
  p_cycles : int;
  p_transitions : int;
}

(* --- the probe set --- *)

let page = Dom_scripts.page ~rows:6

let bench name script = Bench_def.bench ~page name script

type probe = {
  name : string;
  bench : Bench_def.bench;
  mode : Pkru_safe.Config.mode;
  mitigation : Runtime.Mitigator.policy option;
  census_every : int option;
  tier : Engine.tier;
}

let tier_name = function
  | Engine.Ast_tier -> "ast"
  | Engine.Bytecode_tier -> "bytecode"
  | Engine.Threaded_tier -> "threaded"

(* Eight probes spanning the perf-relevant axes: gate-bound DOM traffic,
   DOM construction, a compute kernel where gates are rare, an engine-
   heavy benchmark, the mitigator's interposition cost, the heap census
   (whose cycles must stay exactly equal to the uncensused dom-attr
   probe — the baseline pins the census's architectural invisibility),
   and the two bytecode dispatch tiers (whose cycles must stay exactly
   equal to each other — the baseline pins the fast tier's architectural
   invisibility the same way). *)
let probes =
  [
    {
      name = "dom-attr:mpk";
      bench = bench "dom-attr" (Dom_scripts.dom_attr ~iters:40);
      mode = Pkru_safe.Config.Mpk;
      mitigation = None;
      census_every = None;
      tier = Engine.Ast_tier;
    };
    {
      name = "dom-create:mpk";
      bench = bench "dom-create" (Dom_scripts.dom_create ~iters:24);
      mode = Pkru_safe.Config.Mpk;
      mitigation = None;
      census_every = None;
      tier = Engine.Ast_tier;
    };
    {
      name = "fft:base";
      bench = bench "fft" (Kernels.fft ~n:64);
      mode = Pkru_safe.Config.Base;
      mitigation = None;
      census_every = None;
      tier = Engine.Ast_tier;
    };
    {
      name = "richards:mpk";
      bench = bench "richards" (Kernels.richards ~iterations:12);
      mode = Pkru_safe.Config.Mpk;
      mitigation = None;
      census_every = None;
      tier = Engine.Ast_tier;
    };
    {
      name = "dom-attr:mpk:emulate";
      bench = bench "dom-attr-mitigated" (Dom_scripts.dom_attr ~iters:40);
      mode = Pkru_safe.Config.Mpk;
      mitigation = Some Runtime.Mitigator.Emulate;
      census_every = None;
      tier = Engine.Ast_tier;
    };
    {
      name = "dom-attr:mpk:census";
      bench = bench "dom-attr-censused" (Dom_scripts.dom_attr ~iters:40);
      mode = Pkru_safe.Config.Mpk;
      mitigation = None;
      census_every = Some 64;
      tier = Engine.Ast_tier;
    };
    {
      name = "richards:bc-ref";
      bench = bench "richards-bc-ref" (Kernels.richards ~iterations:12);
      mode = Pkru_safe.Config.Mpk;
      mitigation = None;
      census_every = None;
      tier = Engine.Bytecode_tier;
    };
    {
      name = "richards:bc-threaded";
      bench = bench "richards-bc-threaded" (Kernels.richards ~iterations:12);
      mode = Pkru_safe.Config.Mpk;
      mitigation = None;
      census_every = None;
      tier = Engine.Threaded_tier;
    };
  ]

(* Probe pairs the baseline pins cycle-equal: each optimisation's
   architectural invisibility, expressed as data.  Checked by
   [twin_mismatches] on every fresh run too, so a divergence is caught
   even before a baseline comparison. *)
let twin_pairs =
  [
    ("dom-attr:mpk", "dom-attr:mpk:emulate");
    ("dom-attr:mpk", "dom-attr:mpk:census");
    ("richards:bc-ref", "richards:bc-threaded");
  ]

let twin_mismatches results =
  let find n = List.find_opt (fun r -> r.p_name = n) results in
  List.filter
    (fun (a, b) ->
      match (find a, find b) with
      | Some ra, Some rb ->
        ra.p_cycles <> rb.p_cycles || ra.p_transitions <> rb.p_transitions
      | _ -> false)
    twin_pairs

let run_probe p =
  let profile =
    Runner.profile_suite { Bench_def.suite_name = "sentinel"; benches = [ p.bench ] }
  in
  let m =
    Runner.run_config ?mitigation:p.mitigation ?census_every:p.census_every
      ~engine_tier:p.tier ~mode:p.mode ~profile p.bench
  in
  {
    p_name = p.name;
    p_tier = tier_name p.tier;
    p_cycles = m.Runner.cycles;
    p_transitions = m.Runner.transitions;
  }

let run_probes () = List.map run_probe probes

(* --- commit stamping --- *)

(* `git rev-parse HEAD`, tolerating environments with no git or no repo:
   artifacts are still valid, just unstamped. *)
let commit_hash () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when String.length line >= 7 -> line
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

(* --- baseline (de)serialisation --- *)

let result_to_json r =
  let open Util.Json in
  Obj
    [
      ("name", String r.p_name);
      ("tier", String r.p_tier);
      ("cycles", Int r.p_cycles);
      ("transitions", Int r.p_transitions);
    ]

let result_of_json j =
  let open Util.Json in
  {
    p_name = to_str (member "name" j);
    p_tier =
      (match member "tier" j with
      | String s -> s
      | _ | (exception Not_found) -> "ast" (* pre-tier baselines *));
    p_cycles = to_int (member "cycles" j);
    p_transitions = to_int (member "transitions" j);
  }

let baseline_json ?commit results =
  let open Util.Json in
  Obj
    [
      ("schema", String schema_version);
      ("commit", String (match commit with Some c -> c | None -> commit_hash ()));
      ("probes", List (List.map result_to_json results));
    ]

let baseline_of_json j =
  let open Util.Json in
  (match member "schema" j with
  | String s when s = schema_version -> ()
  | String s ->
    invalid_arg
      (Printf.sprintf "Sentinel: baseline schema %S, this build expects %S" s schema_version)
  | _ -> invalid_arg "Sentinel: baseline has no schema field"
  | exception Not_found -> invalid_arg "Sentinel: baseline has no schema field");
  let commit =
    match member "commit" j with String s -> s | _ | (exception Not_found) -> "unknown"
  in
  (commit, List.map result_of_json (to_list (member "probes" j)))

(* --- comparison --- *)

type verdict =
  | Match
  | Cycle_drift of { base_cycles : int; base_transitions : int }
  | Missing_in_baseline
  | Missing_in_run

let compare_results ~baseline fresh =
  let verdict_for (b : probe_result) (f : probe_result) =
    if b.p_cycles <> f.p_cycles || b.p_transitions <> f.p_transitions then
      Cycle_drift { base_cycles = b.p_cycles; base_transitions = b.p_transitions }
    else Match
  in
  let fresh_verdicts =
    List.map
      (fun (f : probe_result) ->
        match List.find_opt (fun (b : probe_result) -> b.p_name = f.p_name) baseline with
        | None -> (f.p_name, f, Missing_in_baseline)
        | Some b -> (f.p_name, f, verdict_for b f))
      fresh
  in
  let missing =
    List.filter_map
      (fun (b : probe_result) ->
        if List.exists (fun (f : probe_result) -> f.p_name = b.p_name) fresh then None
        else Some (b.p_name, b, Missing_in_run))
      baseline
  in
  fresh_verdicts @ missing

let render_comparison ~commit verdicts =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "bench --compare against baseline %s\n" commit);
  List.iter
    (fun (name, (r : probe_result), verdict) ->
      let line =
        match verdict with
        | Match ->
          Printf.sprintf "  ok    %-22s %10d cycles  %5d transitions" name r.p_cycles
            r.p_transitions
        | Cycle_drift { base_cycles; base_transitions } ->
          Printf.sprintf
            "  DRIFT %-22s cycles %d -> %d (%+d), transitions %d -> %d — deterministic \
             simulation changed"
            name base_cycles r.p_cycles (r.p_cycles - base_cycles) base_transitions
            r.p_transitions
        | Missing_in_baseline ->
          Printf.sprintf "  DRIFT %-22s not in baseline (new probe?) — re-generate with \
                          --baseline-out" name
        | Missing_in_run -> Printf.sprintf "  DRIFT %-22s in baseline but not produced by this run" name
      in
      Buffer.add_string buf (line ^ "\n"))
    verdicts;
  let drifts = List.length (List.filter (fun (_, _, v) -> v <> Match) verdicts) in
  Buffer.add_string buf
    (Printf.sprintf "%d probes: %d ok, %d drift\n" (List.length verdicts)
       (List.length verdicts - drifts) drifts);
  Buffer.contents buf

let has_regression verdicts = List.exists (fun (_, _, v) -> v <> Match) verdicts
