(* Host-cost benchmark for the PKRU-Safe reproduction.

   perfbench.exe --workload (table1|dom-churn|fleet-browse) --seed N
                 --seconds S --trace (0|1) [--trace-out FILE]
   perfbench.exe --write-pins FILE

   A run repeats passes over one workload's inputs (closed loop: each
   pass runs its operations back to back) until [seconds] have elapsed,
   checks every operation against the pinned digests, and prints one JSON
   line last: the end-to-end metrics (medians over passes) with
   [--trace 0], the per-layer metrics with [--trace 1].  See README.md. *)

module Config = Pkru_safe.Config
module D = Workloads.Dom_scripts

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let trace_out = ref ""
let write_pins = ref ""

(* --- Pinned digests and failure accounting --- *)

module Pins = struct
  let table : (string, string) Hashtbl.t = Hashtbl.create 4096
  let writing = ref false

  let load path =
    let ic = open_in path in
    (try
       while true do
         let line = input_line ic in
         if line <> "" && line.[0] <> '#' then
           match String.index_opt line ' ' with
           | Some i ->
             Hashtbl.replace table (String.sub line 0 i)
               (String.sub line (i + 1) (String.length line - i - 1))
           | None -> failwith ("malformed pin line: " ^ line)
       done
     with End_of_file -> ());
    close_in ic

  let save path =
    let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) table []) in
    let oc = open_out path in
    output_string oc
      "# Pinned per-operation digests: key, then simulated cycles, transitions and an\n\
       # output digest (fleet sessions: the fleet's checksum; table1 rows: the row\n\
       # as `bench --only table1` prints it).  Regenerate with perfbench.exe --write-pins.\n";
    List.iter (fun k -> Printf.fprintf oc "%s %s\n" k (Hashtbl.find table k)) keys;
    close_out oc

  (* [None] when [value] matches the pin (in writing mode: records it). *)
  let check key value =
    match Hashtbl.find_opt table key with
    | Some v when v = value -> None
    | Some v -> Some (Printf.sprintf "%s: measured %s, pinned %s" key value v)
    | None when !writing ->
      Hashtbl.replace table key value;
      None
    | None -> Some (key ^ ": no pinned digest")
end

let attempted = ref 0
let failed = ref 0
let problems : (string, unit) Hashtbl.t = Hashtbl.create 16 (* failed checks *)

(* Names each distinct failure once on stderr; passes repeat their inputs. *)
let problem msg =
  if not (Hashtbl.mem problems msg) then begin
    prerr_endline ("FAIL " ^ msg);
    Hashtbl.replace problems msg ()
  end

let op_verdict = function
  | None -> incr attempted
  | Some msg ->
    incr attempted;
    incr failed;
    problem msg

let modes = [ Config.Base; Config.Alloc; Config.Mpk ]

(* Runs one job under each mode and judges each run: it must not raise,
   must match its pin, and must print what the base run printed. *)
let run_modes ?tier ~key ~profile job =
  let runs =
    List.map
      (fun mode ->
        (mode, try Ok (Ops.run ?tier ~mode ~profile job) with e -> Error (Printexc.to_string e)))
      modes
  in
  let base_output = match runs with (_, Ok r) :: _ -> Some r.Ops.output | _ -> None in
  List.map
    (fun (mode, res) ->
      let k = key ^ "/" ^ Ops.mode_name mode in
      let verdict =
        match res with
        | Error msg -> Some (k ^ ": " ^ msg)
        | Ok r -> (
          match Pins.check k (Ops.pin_value r) with
          | Some msg -> Some msg
          | None when base_output <> Some r.Ops.output -> Some (k ^ ": console output differs from base")
          | None -> None)
      in
      op_verdict verdict;
      match (verdict, res) with None, Ok r -> Some r | _ -> None)
    runs

let ratio a b = if b = 0.0 then 0.0 else a /. b
let mean = Util.Stats.mean

(* --- What one pass of a workload reports --- *)

type outcome = {
  results : Ops.result list;  (** every successful operation the benchmark ran itself *)
  latencies : float list;  (** per-operation simulated latency, cycles *)
  sim_ops_per_gcycle : float;
  alloc_norm : float;  (** mean alloc/base simulated-cycle ratio *)
  mpk_norm : float;
  completed : int;  (** operations completed in the timed phase *)
  timed_s : float;  (** host seconds of the timed phase *)
  timed_cycles : int;  (** simulated cycles retired in it *)
  timed_exec_s : float;  (** host seconds spent executing them *)
  scripts : string list;  (** the pass's distinct scripts (front-end probe input) *)
  extra : (string * float) list;  (** workload-specific per-layer metrics *)
  extra_counts : (string * float) list;  (** workload-specific simulated counts *)
}

let sum_cycles rs = List.fold_left (fun acc r -> acc + r.Ops.cycles) 0 rs

let norm results pick =
  mean
    (List.filter_map
       (function
         | [ Some b; Some a; Some m ] ->
           Some (ratio (float_of_int (pick (a, m)).Ops.cycles) (float_of_int b.Ops.cycles))
         | _ -> None)
       results)

let plain_outcome ~results_by_job ~scripts =
  let results = List.concat_map (List.filter_map Fun.id) results_by_job in
  let cycles = sum_cycles results in
  {
    results;
    latencies = List.map (fun r -> float_of_int r.Ops.cycles) results;
    sim_ops_per_gcycle = ratio (float_of_int (List.length results) *. 1e9) (float_of_int cycles);
    alloc_norm = norm results_by_job fst;
    mpk_norm = norm results_by_job snd;
    completed = List.length results;
    timed_s = !Ops.op_s;
    timed_cycles = cycles;
    timed_exec_s = !Ops.exec_s;
    scripts;
    extra = [];
    extra_counts = [];
  }

let job_of_bench (b : Workloads.Bench_def.bench) =
  {
    Ops.name = b.Workloads.Bench_def.name;
    page = b.Workloads.Bench_def.page;
    scripts = [ b.Workloads.Bench_def.script ];
    seed = b.Workloads.Bench_def.engine_seed;
  }

(* --- table1: the paper's Table 1 method over the registered suites --- *)

(* Dromaeo is profiled and averaged per sub-suite, as bench/main.ml does. *)
let table1_suites =
  Workloads.Dromaeo.sub_suites
  @ [ Workloads.Jetstream.all; Workloads.Kraken.all; Workloads.Octane.all ]

type row = { r_alloc : float; r_mpk : float; r_transitions : int; r_mu : float }

let row_string r =
  Printf.sprintf "%+.2f%% %+.2f%% %d %.2f%%" r.r_alloc r.r_mpk r.r_transitions r.r_mu

let last_rows : (string * row) list ref = ref []

let suite_row results =
  let complete = List.filter_map (function [ Some b; Some a; Some m ] -> Some (b, a, m) | _ -> None) results in
  let over base m =
    Util.Stats.percent_overhead ~baseline:(float_of_int base.Ops.cycles) ~measured:(float_of_int m.Ops.cycles)
  in
  let mt = List.fold_left (fun acc (_, _, m) -> acc + m.Ops.mt_bytes) 0 complete in
  let mu = List.fold_left (fun acc (_, _, m) -> acc + m.Ops.mu_bytes) 0 complete in
  {
    r_alloc = mean (List.map (fun (b, a, _) -> over b a) complete);
    r_mpk = mean (List.map (fun (b, _, m) -> over b m) complete);
    r_transitions = List.fold_left (fun acc (_, _, m) -> acc + m.Ops.transitions) 0 complete;
    r_mu = (if mt + mu = 0 then 0.0 else 100.0 *. float_of_int mu /. float_of_int (mt + mu));
  }

let table1 _rng =
  let per_suite =
    List.map
      (fun (suite : Workloads.Bench_def.suite) ->
        let name = suite.Workloads.Bench_def.suite_name in
        let jobs = List.map job_of_bench suite.Workloads.Bench_def.benches in
        let profile = Ops.profile_all jobs in
        let results =
          List.map (fun job -> run_modes ~key:("table1/" ^ name ^ "/" ^ job.Ops.name) ~profile job) jobs
        in
        (name, suite_row results, results))
      table1_suites
  in
  let sub_names = List.map (fun s -> s.Workloads.Bench_def.suite_name) Workloads.Dromaeo.sub_suites in
  let subs = List.filter_map (fun (n, r, _) -> if List.mem n sub_names then Some r else None) per_suite in
  let dromaeo =
    {
      r_alloc = mean (List.map (fun r -> r.r_alloc) subs);
      r_mpk = mean (List.map (fun r -> r.r_mpk) subs);
      r_transitions = List.fold_left (fun acc r -> acc + r.r_transitions) 0 subs;
      r_mu = mean (List.map (fun r -> r.r_mu) subs);
    }
  in
  let rows =
    ("Dromaeo", dromaeo)
    :: List.filter_map
         (fun (n, r, _) -> if List.mem n sub_names then None else Some (n, r))
         per_suite
  in
  List.iter
    (fun (n, r) ->
      match Pins.check ("table1-row/" ^ n) (row_string r) with
      | Some msg -> problem msg
      | None -> ())
    rows;
  last_rows := rows;
  let results_by_job = List.concat_map (fun (_, _, rs) -> rs) per_suite in
  let o =
    plain_outcome ~results_by_job
      ~scripts:(List.concat_map (fun (s : Workloads.Bench_def.suite) ->
           List.map (fun b -> b.Workloads.Bench_def.script) s.Workloads.Bench_def.benches) table1_suites)
  in
  (* The Table-1 normalised runtimes: 1 + the mean of the four rows' overheads. *)
  {
    o with
    alloc_norm = 1.0 +. (mean (List.map (fun (_, r) -> r.r_alloc) rows) /. 100.0);
    mpk_norm = 1.0 +. (mean (List.map (fun (_, r) -> r.r_mpk) rows) /. 100.0);
  }

(* --- Seeded DOM scripts (dom-churn, and the small jobs of fleet-browse) --- *)

(* Approximate mpk-build cycles of a script, [f0 + f1 * rows + iters * (c0
   + c1 * rows)] (fitted to the pinned runs), used only to size scripts:
   iterations are set so each script costs about a drawn cycle budget,
   which keeps per-operation latencies continuous across generators and
   page sizes. *)
let generators =
  [
    ("dom_attr", D.dom_attr, (3330.0, 23.5, 688.0, 0.0));
    ("dom_create", D.dom_create, (4220.0, 0.0, 951.0, 0.0));
    ("dom_query", D.dom_query, (2220.0, 0.0, 523.0, 49.0));
    ("dom_html", D.dom_html, (2320.0, 23.0, 215.0, 0.0));
    ("dom_traverse", D.dom_traverse, (2950.0, 24.5, 403.0, 26.4));
    ("jslib_toggle", D.jslib_toggle, (4070.0, 41.5, 712.0, 0.0));
    ("jslib_build", D.jslib_build, (2900.0, 0.0, 4212.0, 0.7));
    ("dom_style", D.dom_style, (3470.0, 25.0, 995.0, 144.0));
    ("jslib_select", D.jslib_select, (2300.0, 0.0, 800.0, 128.0));
    ("dom_events", D.dom_events, (4360.0, 192.0, 637.0, 0.0));
  ]

let dom_job ~budget (name, gen, (f0, f1, c0, c1)) rows =
  let rows_f = float_of_int rows in
  let per_iter = c0 +. (c1 *. rows_f) in
  let iters = max 1 (Float.to_int (Float.round ((budget -. f0 -. (f1 *. rows_f)) /. per_iter))) in
  {
    Ops.name = Printf.sprintf "%s-r%d-i%d" name rows iters;
    page = D.page ~rows;
    scripts = [ gen ~iters ];
    seed = 1;
  }

let shuffle rng l =
  let a = Array.of_list l in
  Util.Rng.shuffle rng a;
  Array.to_list a

(* --- dom-churn --- *)

let churn_rows = [ 16; 32; 64; 128; 256 ]
let churn_levels = 11
let churn_per_stratum = 8
let churn_budget level = 40_000.0 *. (0.5 +. (0.1 *. float_of_int level))

let churn_pool () =
  List.concat_map
    (fun g ->
      List.concat_map
        (fun rows -> List.init churn_levels (fun l -> dom_job ~budget:(churn_budget l) g rows))
        churn_rows)
    generators

(* Every pass has [churn_per_stratum] scripts per generator and page size,
   and the same multiset of budget levels; the seed deals the levels out
   to the scripts and orders the scripts, so a pass's total work and its
   latency tail barely depend on the seed. *)
let dom_churn rng =
  let jobs =
    Trace.call "workloads.generate" (fun () ->
        let strata =
          List.concat_map
            (fun g -> List.concat_map (fun rows -> List.init churn_per_stratum (fun _ -> (g, rows))) churn_rows)
            generators
        in
        let levels = Array.init (List.length strata) (fun i -> i mod churn_levels) in
        Util.Rng.shuffle rng levels;
        shuffle rng (List.mapi (fun i (g, rows) -> dom_job ~budget:(churn_budget levels.(i)) g rows) strata))
  in
  let results_by_job =
    List.map
      (fun job ->
        let profile = Ops.profile job in
        run_modes ~key:("dom-churn/" ^ job.Ops.name) ~profile job)
      jobs
  in
  plain_outcome ~results_by_job ~scripts:(List.concat_map (fun j -> j.Ops.scripts) jobs)

(* --- fleet-browse --- *)

let fleet_cpus = 4
let fleet_max_live = 64
let fleet_timeslice = 1000
let fleet_page_budget = 1024
let fleet_rows = [| 8; 12; 16 |]
let fleet_levels = 9
let fleet_budget level = 8_000.0 +. (1_000.0 *. float_of_int level)

let corpus_jobs =
  List.map
    (fun (s : Workloads.Browsing.session) ->
      {
        Ops.name = s.Workloads.Browsing.session_name;
        page = s.Workloads.Browsing.page;
        scripts = s.Workloads.Browsing.scripts;
        seed = 1 (* as Fleet.job_of_session *);
      })
    Workloads.Browsing.sessions

let fleet_job_pool () =
  corpus_jobs
  @ List.concat_map
      (fun g ->
        List.concat_map
          (fun rows -> List.init fleet_levels (fun l -> dom_job ~budget:(fleet_budget l) g rows))
          (Array.to_list fleet_rows))
      generators

let fleet_job (j : Ops.job) =
  { Fleet.job_name = j.Ops.name; job_page = j.Ops.page; job_scripts = j.Ops.scripts; job_seed = j.Ops.seed }

(* A fixed mix, so every pass has the same share of each job class:
   [fleet_corpus_copies] of each corpus session and [fleet_dom_copies] of
   each generator at each budget level, the seed drawing each DOM job's
   page size and the admission order. *)
let fleet_dom_copies = 5
let fleet_corpus_copies = 14 * fleet_dom_copies

let fleet_inputs rng =
  let corpus = List.concat_map (fun j -> List.init fleet_corpus_copies (fun _ -> j)) corpus_jobs in
  let dom =
    List.concat_map
      (fun g ->
        List.concat_map
          (fun level ->
            List.init fleet_dom_copies (fun _ ->
                dom_job ~budget:(fleet_budget level) g (Util.Rng.pick rng fleet_rows)))
          (List.init fleet_levels Fun.id))
      generators
  in
  shuffle rng (corpus @ dom)

let distinct_jobs jobs = List.sort_uniq (fun a b -> compare a.Ops.name b.Ops.name) jobs

(* The fleet run and the judging of every session against its pin. *)
let run_fleet ~profile jobs =
  Calib.tick ();
  let t0 = Trace.now () in
  let r =
    Trace.call "fleet.run" (fun () ->
        Fleet.run ~mode:Config.Mpk ~profile ~cpus:fleet_cpus ~timeslice:fleet_timeslice ~max_live:fleet_max_live
          ~page_budget:fleet_page_budget ~tier:Engine.Threaded_tier
          ~sessions:(List.length jobs) (List.map fleet_job jobs))
  in
  let fleet_s = Trace.now () -. t0 in
  let jobs_arr = Array.of_list jobs in
  List.iter
    (fun (sr : Fleet.session_result) ->
      let job = jobs_arr.(sr.Fleet.sr_index) in
      let key = "fleet-session/" ^ job.Ops.name in
      op_verdict
        (match sr.Fleet.sr_outcome with
        | Fleet.Completed ->
          Pins.check key
            (Printf.sprintf "%d %d %d" sr.Fleet.sr_cycles sr.Fleet.sr_transitions sr.Fleet.sr_checksum)
        | o -> Some (Printf.sprintf "%s (session %d): %s" key sr.Fleet.sr_index (Fleet.outcome_to_string o))))
    r.Fleet.r_results;
  (match r.Fleet.r_backing with
  | Some b when b.Fleet.bk_denials > 0 -> problem (Printf.sprintf "fleet: %d page requests denied" b.Fleet.bk_denials)
  | _ -> ());
  (r, fleet_s)

let fleet_browse rng =
  let jobs = Trace.call "workloads.generate" (fun () -> fleet_inputs rng) in
  let profile = Ops.profile_all corpus_jobs in
  let r, fleet_s = run_fleet ~profile jobs in
  (* Reference: every distinct job standalone under each mode, outside the
     fleet; the fleet's per-session cycles must equal the standalone mpk run's. *)
  let reference = Hashtbl.create 128 in
  List.iter
    (fun job ->
      Hashtbl.replace reference job.Ops.name
        (run_modes ~tier:Engine.Threaded_tier ~key:("fleet/" ^ job.Ops.name) ~profile job))
    (distinct_jobs jobs);
  let jobs_arr = Array.of_list jobs in
  List.iter
    (fun (sr : Fleet.session_result) ->
      match Hashtbl.find_opt reference jobs_arr.(sr.Fleet.sr_index).Ops.name with
      | Some [ _; _; Some m ]
        when m.Ops.cycles <> sr.Fleet.sr_cycles || m.Ops.transitions <> sr.Fleet.sr_transitions ->
        problem (Printf.sprintf "fleet session %d differs from its standalone run" sr.Fleet.sr_index)
      | _ -> ())
    r.Fleet.r_results;
  let per_session = List.map (fun j -> Hashtbl.find reference j.Ops.name) jobs in
  (* Host seconds the fleet's sessions take when run one by one outside it. *)
  let standalone_s =
    List.fold_left (fun acc rs -> match rs with [ _; _; Some m ] -> acc +. m.Ops.host_s | _ -> acc) 0.0 per_session
  in
  let results = List.concat_map (List.filter_map Fun.id) (Hashtbl.fold (fun _ rs acc -> rs :: acc) reference []) in
  let n = float_of_int r.Fleet.r_sessions in
  {
    results;
    latencies = List.map (fun sr -> float_of_int sr.Fleet.sr_latency_cycles) r.Fleet.r_results;
    sim_ops_per_gcycle = r.Fleet.r_sessions_per_sec;
    alloc_norm = norm per_session fst;
    mpk_norm = norm per_session snd;
    completed = r.Fleet.r_completed;
    timed_s = fleet_s;
    timed_cycles = r.Fleet.r_total_cycles;
    timed_exec_s = fleet_s;
    scripts = List.concat_map (fun j -> j.Ops.scripts) (distinct_jobs jobs);
    extra =
      [
        ("fleet.run_s", fleet_s);
        ("fleet.host_us_per_session", fleet_s *. 1e6 /. n);
        ("fleet.standalone_us_per_session", standalone_s *. 1e6 /. n);
        ("fleet.sched_overhead_pct", (ratio fleet_s standalone_s -. 1.0) *. 100.0);
      ];
    extra_counts =
      [ ("fleet.yields", float_of_int r.Fleet.r_yields); ("fleet.steals", float_of_int r.Fleet.r_steals) ];
  }

let workloads = [ ("table1", table1); ("dom-churn", dom_churn); ("fleet-browse", fleet_browse) ]

(* --- Passes --- *)

let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    let rec scan () =
      match input_line ic with
      | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" (fun kb -> float_of_int kb /. 1024.0)
      | _ -> scan ()
    in
    let v = try scan () with End_of_file -> 0.0 in
    close_in ic;
    v
  with Sys_error _ -> 0.0

(* Simulated metrics and counts: deterministic, so they must repeat
   exactly from pass to pass, traced or not. *)
let sim_metrics o ~profile_faults =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 o.results in
  let hits = sum (fun r -> r.Ops.tlb.Sim.Tlb.hits) and misses = sum (fun r -> r.Ops.tlb.Sim.Tlb.misses) in
  let hit_ratio h m = ratio (float_of_int h) (float_of_int (h + m)) in
  ( [
      ("sim_alloc_norm", o.alloc_norm);
      ("sim_mpk_norm", o.mpk_norm);
      ("sim_ops_per_gcycle", o.sim_ops_per_gcycle);
      ("sim_p99_latency_kcycles",
        if o.latencies = [] then 0.0 else Util.Stats.percentile 99.0 o.latencies /. 1000.0);
    ],
    [
      ("runtime.profile_faults", float_of_int profile_faults);
      ("runtime.transitions", float_of_int (sum (fun r -> r.Ops.transitions)));
      ("machine.accesses", float_of_int (hits + misses));
      ("machine.tlb_hits", float_of_int hits);
      ("machine.tlb_misses", float_of_int misses);
      ("machine.tlb_hit_ratio", hit_ratio hits misses);
      ("machine.tlb_flushes", float_of_int (sum (fun r -> r.Ops.tlb.Sim.Tlb.flushes)));
      ("allocators.mt_allocs", float_of_int (sum (fun r -> r.Ops.mt_allocs)));
      ("allocators.mu_allocs", float_of_int (sum (fun r -> r.Ops.mu_allocs)));
      ("engine.var_ic_hit_ratio", hit_ratio (sum (fun r -> r.Ops.var_hits)) (sum (fun r -> r.Ops.var_misses)));
      ("engine.prop_ic_hit_ratio", hit_ratio (sum (fun r -> r.Ops.prop_hits)) (sum (fun r -> r.Ops.prop_misses)));
      ("engine.selector_hit_ratio", hit_ratio (sum (fun r -> r.Ops.sel_hits)) (sum (fun r -> r.Ops.sel_misses)));
      ("engine.super_execs", float_of_int (sum (fun r -> r.Ops.super_execs)));
      ("sim.timed_cycles", float_of_int o.timed_cycles);
    ]
    @ o.extra_counts )

(* What the run keeps of a pass: numbers only, so that a run's memory does
   not grow with the number of passes. *)
type pass = {
  wall : float;  (** host seconds, calibration samples excluded *)
  scale : float;  (** [Calib.nominal_s] over the pass's median kernel time *)
  kernel_s : float;
  setup : float;
  sims : (string * float) list;  (** simulated metrics *)
  counts : (string * float) list;  (** simulated counts *)
  mcycles_per_s : float;  (** simulated megacycles per host second of the timed phase *)
  ops_per_s : float;  (** operations completed per host second of the timed phase *)
  extra : (string * float) list;  (** the outcome's workload-specific metrics *)
  minor_mwords : float;
  rss_mb : float;  (** peak resident set (VmHWM) at the end of the pass *)
  gc : (string * float) list;
  profile_s : float;
  own_exec_s : float;  (** host seconds in the benchmark's own Browser.exec_script calls *)
  own_cycles : float;  (** simulated cycles of those calls *)
  layer_us : (string * float) list;  (** mean host µs per call of a layer entry point *)
  id : int;
}

(* The latest pass's distinct scripts, input of the front-end probe. *)
let last_scripts : string list ref = ref []

let run_pass ~id ~traced f =
  Trace.pass_id := id;
  Trace.reset_totals ();
  Ops.reset ();
  if traced then Trace.gc_reset ();
  Trace.enabled := traced;
  Calib.start_pass ();
  let g0 = Gc.quick_stat () in
  let t0 = Trace.now () in
  let o = f (Util.Rng.create !seed) in
  let wall = Trace.now () -. t0 -. Calib.spent () in
  let g1 = Gc.quick_stat () in
  let rss_mb = peak_rss_mb () in
  let kernel_s = Calib.end_pass () in
  Trace.enabled := false;
  if traced then Trace.gc_poll ();
  last_scripts := o.scripts;
  let sims, counts = sim_metrics o ~profile_faults:!Ops.profile_faults in
  {
    wall;
    scale = Calib.nominal_s /. kernel_s;
    kernel_s;
    setup = !Ops.setup_s +. Trace.secs "workloads.generate";
    sims;
    counts;
    mcycles_per_s = ratio (float_of_int o.timed_cycles) o.timed_exec_s /. 1e6;
    ops_per_s = ratio (float_of_int o.completed) o.timed_s;
    extra = o.extra;
    minor_mwords = (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6;
    rss_mb;
    gc =
      [
        ("gc.minor_collections", float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections));
        ("gc.major_collections", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
        ("gc.promoted_mwords", (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1e6);
        ("gc.pause_s", float_of_int !Trace.gc_pause_ns /. 1e9);
      ];
    profile_s = !Ops.profile_s;
    own_exec_s = !Ops.exec_s;
    own_cycles = float_of_int (sum_cycles o.results);
    layer_us =
      List.map
        (fun n -> (n, Trace.mean_us n))
        [ "core.env_create"; "browser.create"; "browser.load_page" ];
    id;
  }

let check_repeat passes =
  match passes with
  | [] -> ()
  | first :: rest ->
    List.iter
      (fun p ->
        List.iter2
          (fun (name, v0) (_, v) ->
            if Int64.bits_of_float v0 <> Int64.bits_of_float v then
              problem
                (Printf.sprintf "repeat: %s is %.17g in pass %d but %.17g in pass %d" name v p.id v0 first.id))
          (first.sims @ first.counts) (p.sims @ p.counts))
      rest

(* --- Output --- *)

let units =
  [
    ("wall_s", "s"); ("setup_s", "s"); ("sim_mcycles_per_s", "Mcycles/s"); ("ops_per_s", "1/s");
    ("peak_rss_mb", "MB"); ("host_alloc_mwords", "Mwords"); ("sim_alloc_norm", "x"); ("sim_mpk_norm", "x");
    ("sim_ops_per_gcycle", "1/Gcycles"); ("sim_p99_latency_kcycles", "kcycles");
  ]

let unit_of name =
  match List.assoc_opt name units with
  | Some u -> u
  | None ->
    let ends s = String.length name > String.length s
                 && String.sub name (String.length name - String.length s) (String.length s) = s in
    if ends "_ns" then "ns"
    else if ends "_us" || ends "_us_per_session" then "us"
    else if ends "_us_per_kb" then "us/KiB"
    else if ends "_ms" then "ms"
    else if ends "_ns_per_sim_cycle" then "ns/cycle"
    else if ends "_pct" then "%"
    else if ends "_ratio" then "ratio"
    else if ends "_mwords" then "Mwords"
    else if ends "_s" then "s"
    else "count"

let median = Util.Stats.percentile 50.0

let end_to_end passes =
  let med f = median (List.map f passes) in
  [
    ("wall_s", med (fun p -> p.wall *. p.scale));
    ("setup_s", med (fun p -> p.setup *. p.scale));
    ("sim_mcycles_per_s", med (fun p -> p.mcycles_per_s /. p.scale));
    ("ops_per_s", med (fun p -> p.ops_per_s /. p.scale));
    (* After the first pass: later passes repeat its work, and how many of
       them fit in a run depends on the host's speed, which a whole-run peak
       would pick up through the GC's heap growth. *)
    ("peak_rss_mb", (List.hd passes).rss_mb);
    ("host_alloc_mwords", med (fun p -> p.minor_mwords));
  ]
  @ (List.hd passes).sims

let all_layers = [ "workloads"; "runner"; "runtime"; "core"; "browser"; "engine"; "machine"; "allocators"; "fleet" ]

let fleet_metric_names =
  [ "fleet.run_s"; "fleet.host_us_per_session"; "fleet.standalone_us_per_session"; "fleet.sched_overhead_pct" ]

let per_layer ~untraced ~traced ~probes =
  let med f = median (List.map f traced) in
  let counts = (List.hd traced).counts in
  let count name = List.assoc name counts in
  let p0 = List.hd traced in
  let exec_s = med (fun p -> p.own_exec_s) in
  let probe name = List.assoc name probes in
  let amdahl ns count = ratio (ns *. count) (exec_s *. 1e9) *. 100.0 in
  let selfs =
    let per_pass = List.map (fun p -> Trace.self_times ~passes:[ p.id ]) traced in
    List.map
      (fun layer ->
        ( "self." ^ layer ^ "_s",
          median (List.map (fun h -> Option.value ~default:0.0 (Hashtbl.find_opt h layer)) per_pass) ))
      all_layers
  in
  let fleet_extra =
    List.map
      (fun name -> (name, med (fun p -> Option.value ~default:0.0 (List.assoc_opt name p.extra))))
      fleet_metric_names
  in
  [
    ("host.ref_kernel_ms", med (fun p -> p.kernel_s *. 1e3));
    ("runtime.profile_s", med (fun p -> p.profile_s));
    ("runtime.profile_faults", count "runtime.profile_faults");
    ("core.env_create_us", med (fun p -> List.assoc "core.env_create" p.layer_us));
    ("browser.create_us", med (fun p -> List.assoc "browser.create" p.layer_us));
    ("browser.load_page_us", med (fun p -> List.assoc "browser.load_page" p.layer_us));
    ("engine.exec_script_s", exec_s);
    ("engine.exec_ns_per_sim_cycle", med (fun p -> ratio (p.own_exec_s *. 1e9) p.own_cycles));
    ("engine.front_us_per_kb", probe "engine.front_us_per_kb");
    ("engine.var_ic_hit_ratio", count "engine.var_ic_hit_ratio");
    ("engine.prop_ic_hit_ratio", count "engine.prop_ic_hit_ratio");
    ("engine.selector_hit_ratio", count "engine.selector_hit_ratio");
    ("engine.super_execs", count "engine.super_execs");
    ("machine.accesses", count "machine.accesses");
    ("machine.tlb_hit_ratio", count "machine.tlb_hit_ratio");
    ("machine.tlb_flushes", count "machine.tlb_flushes");
    ("machine.read_hit_ns", probe "machine.read_hit_ns");
    ("machine.read_miss_ns", probe "machine.read_miss_ns");
    ("machine.charge_ns", probe "machine.charge_ns");
    ("allocators.mt_allocs", count "allocators.mt_allocs");
    ("allocators.mu_allocs", count "allocators.mu_allocs");
    ("allocators.mt_alloc_free_ns", probe "allocators.mt_alloc_free_ns");
    ("allocators.mu_alloc_free_ns", probe "allocators.mu_alloc_free_ns");
    ("runtime.transitions", count "runtime.transitions");
    ("runtime.gate_roundtrip_ns", probe "runtime.gate_roundtrip_ns");
  ]
  @ fleet_extra
  @ [
      ("fleet.yields", Option.value ~default:0.0 (List.assoc_opt "fleet.yields" counts));
      ("fleet.steals", Option.value ~default:0.0 (List.assoc_opt "fleet.steals" counts));
    ]
  @ List.map (fun (name, _) -> (name, med (fun p -> List.assoc name p.gc))) p0.gc
  @ [
      ( "amdahl.machine_access_pct",
        amdahl (probe "machine.read_hit_ns") (count "machine.tlb_hits")
        +. amdahl (probe "machine.read_miss_ns") (count "machine.tlb_misses") );
      ("amdahl.gate_pct", amdahl (probe "runtime.gate_roundtrip_ns" /. 2.0) (count "runtime.transitions"));
      ( "amdahl.alloc_pct",
        amdahl (probe "allocators.mt_alloc_free_ns") (count "allocators.mt_allocs")
        +. amdahl (probe "allocators.mu_alloc_free_ns") (count "allocators.mu_allocs") );
      ( "trace.overhead_pct",
        (ratio (med (fun p -> p.wall)) (median (List.map (fun p -> p.wall) untraced)) -. 1.0) *. 100.0 );
    ]
  @ selfs

let metrics_json metrics =
  Util.Json.Obj
    (List.map
       (fun (name, v) ->
         let v = if Float.is_finite v then v else 0.0 in
         (name, Util.Json.Obj [ ("value", Util.Json.Float v); ("unit", Util.Json.String (unit_of name)) ]))
       metrics)

let print_table1 () =
  if !last_rows <> [] then begin
    print_endline "Table 1 (measured | paper | difference, points):";
    List.iter
      (fun (p : Workloads.Paper.table1_row) ->
        match List.assoc_opt p.Workloads.Paper.t1_suite !last_rows with
        | None -> ()
        | Some r ->
          Printf.printf "  %-10s alloc %+6.2f%% | %+6.2f%% | %+6.2f   mpk %+6.2f%% | %+6.2f%% | %+6.2f   transitions %d   %%MU %.2f%%\n"
            p.Workloads.Paper.t1_suite r.r_alloc p.Workloads.Paper.t1_alloc_pct
            (r.r_alloc -. p.Workloads.Paper.t1_alloc_pct)
            r.r_mpk p.Workloads.Paper.t1_mpk_pct (r.r_mpk -. p.Workloads.Paper.t1_mpk_pct)
            r.r_transitions r.r_mu)
      Workloads.Paper.table1
  end

let run_probes () =
  let probe name f =
    match f () with
    | v -> (name, v)
    | exception Probes.Probe_failed msg ->
      problem ("probe " ^ msg);
      (name, 0.0)
  in
  [
    probe "machine.read_hit_ns" Probes.read_hit_ns;
    probe "machine.read_miss_ns" Probes.read_miss_ns;
    probe "machine.charge_ns" Probes.charge_ns;
    probe "runtime.gate_roundtrip_ns" Probes.gate_roundtrip_ns;
    probe "allocators.mt_alloc_free_ns" (fun () -> Probes.alloc_free_ns `Mt);
    probe "allocators.mu_alloc_free_ns" (fun () -> Probes.alloc_free_ns `Mu);
  ]

let measure f =
  let deadline_half = Trace.now () +. (float_of_int !seconds /. 2.0) in
  let deadline = Trace.now () +. float_of_int !seconds in
  let next_id = ref 0 in
  let pass traced =
    incr next_id;
    run_pass ~id:!next_id ~traced f
  in
  let rec loop traced until acc =
    let p = pass traced in
    if Trace.now () >= until then List.rev (p :: acc) else loop traced until (p :: acc)
  in
  let report kind passes =
    let show f = String.concat "" (List.map (fun p -> Printf.sprintf " %.3f" (f p)) passes) in
    Printf.printf "%d %s passes\n  host wall s:%s\n  reference kernel ms:%s\n" (List.length passes) kind
      (show (fun p -> p.wall))
      (show (fun p -> p.kernel_s *. 1e3))
  in
  if !trace = 0 then begin
    let passes = loop false deadline [] in
    report "untraced" passes;
    check_repeat passes;
    end_to_end passes
  end
  else begin
    Trace.gc_start ();
    let untraced = loop false deadline_half [] in
    let traced = loop true deadline [] in
    report "untraced" untraced;
    report "traced" traced;
    check_repeat (untraced @ traced);
    Trace.enabled := true;
    Trace.pass_id := 0;
    let probes = run_probes () in
    let front = ("engine.front_us_per_kb", Probes.front_us_per_kb (List.sort_uniq compare !last_scripts)) in
    Trace.enabled := false;
    if !trace_out <> "" then Trace.write !trace_out;
    per_layer ~untraced ~traced ~probes:(front :: probes)
  end

(* --- Writing the pins --- *)

(* Runs every workload's whole input pool once, recording each
   operation's digest, after cross-checking the step-by-step operations
   against Workloads.Runner and Workloads.Browsing. *)
let write_all_pins path =
  Pins.writing := true;
  let same what a b = if a <> b then failwith ("pin cross-check failed: " ^ what) in
  (* table1: the replica against Runner.run_suite, operation by operation. *)
  ignore (table1 (Util.Rng.create 0));
  List.iter
    (fun (suite : Workloads.Bench_def.suite) ->
      let sr = Workloads.Runner.run_suite suite in
      List.iter
        (fun (br : Workloads.Runner.bench_result) ->
          List.iter
            (fun (mode, (m : Workloads.Runner.measurement)) ->
              let key = Printf.sprintf "table1/%s/%s/%s" suite.Workloads.Bench_def.suite_name br.Workloads.Runner.bench mode in
              same key (Hashtbl.find Pins.table key)
                (Printf.sprintf "%d %d %s" m.Workloads.Runner.cycles m.Workloads.Runner.transitions
                   (Ops.output_digest m.Workloads.Runner.output)))
            [ ("base", br.Workloads.Runner.base); ("alloc", br.Workloads.Runner.alloc); ("mpk", br.Workloads.Runner.mpk) ])
        sr.Workloads.Runner.bench_results)
    table1_suites;
  (* dom-churn: every job the generator can draw. *)
  List.iter
    (fun job ->
      let profile = Ops.profile job in
      ignore (run_modes ~key:("dom-churn/" ^ job.Ops.name) ~profile job))
    (distinct_jobs (churn_pool ()));
  (* fleet-browse: the replica deployment profile against Browsing's. *)
  let profile = Ops.profile_all corpus_jobs in
  same "deployment profile"
    (Util.Json.to_string (Runtime.Profile.to_json profile))
    (Util.Json.to_string (Runtime.Profile.to_json (Workloads.Browsing.deployment_profile ())));
  let pool = distinct_jobs (fleet_job_pool ()) in
  List.iter (fun job -> ignore (run_modes ~tier:Engine.Threaded_tier ~key:("fleet/" ^ job.Ops.name) ~profile job)) pool;
  ignore (run_fleet ~profile pool);
  if Hashtbl.length problems > 0 then failwith "pin writing found failures";
  Pins.save path;
  Printf.printf "wrote %d pins to %s\n" (Hashtbl.length Pins.table) path

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME table1 | dom-churn | fleet-browse");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer traced run (1)");
      ("--trace-out", Arg.Set_string trace_out, "FILE where the traced run writes its spans");
      ("--write-pins", Arg.Set_string write_pins, "FILE regenerate the pinned digests");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !write_pins <> "" then write_all_pins !write_pins
  else begin
    let f =
      match List.assoc_opt !workload workloads with
      | Some f -> f
      | None ->
        prerr_endline ("unknown workload " ^ !workload ^ "; expected table1, dom-churn or fleet-browse");
        exit 2
    in
    if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
      exit 2
    end;
    Pins.load "perfbench/pins.txt";
    let metrics = measure f in
    Printf.printf "workload %s seed %d: %d operations attempted, %d failed\n" !workload !seed !attempted !failed;
    print_table1 ();
    List.iter (fun (n, v) -> Printf.printf "  %-36s %16.6f %s\n" n v (unit_of n)) metrics;
    print_endline
      (Util.Json.to_string
         (Util.Json.Obj
            [
              ("correct", Util.Json.Bool (Hashtbl.length problems = 0));
              ("attempted", Util.Json.Int !attempted);
              ("failed", Util.Json.Int !failed);
              ("metrics", metrics_json metrics);
            ]))
  end
