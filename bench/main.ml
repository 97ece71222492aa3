(* The benchmark harness: regenerates every table and figure from the
   paper's evaluation (§5), printing measured results next to the paper's
   reported numbers, then runs the ablation studies and a bechamel pass
   over scaled-down versions of each experiment.

   Usage: main.exe [--skip-bechamel] [--only SECTION]... [--json DIR]
   Sections, in run order: micro fig3 table1 table2 fig5 fig6 fig7
     security sites ablations tlb mitigation census dispatch fleet garmr
     bechamel
   --only may repeat; with none given, every section runs.  An unknown
   section or argument, or a --json DIR that cannot be created, prints
   one line and exits 2 before any section runs.

   Each section computes its results once, fails the run (exit 1) on any
   broken hard gate, prints its table and hands back the JSON artifacts
   it owns.  --json DIR writes the artifacts of the sections that ran,
   then host.json (per-section host wall time, plus the tlb and dispatch
   blocks when those sections ran) and manifest.json.  The probe
   workloads' cycles are pinned in test/test_pins.ml, not here. *)

let header title = Printf.printf "\n=== %s ===\n\n" title

let pct p = Printf.sprintf "%+.2f%%" p
let ratio r = Printf.sprintf "%.2fx" r

let bar ?(scale = 40.0) v =
  let n = int_of_float (Float.min (v *. scale /. 2.0) 60.0) in
  String.make (max n 1) '#'

let env_exn ?profile mode =
  match Pkru_safe.Env.create ?profile (Pkru_safe.Config.make mode) with
  | Ok env -> env
  | Error msg -> failwith msg

(* --- §5.2 Micro-benchmarks --- *)

let run_micro () =
  header "Micro-benchmarks (paper 5.2): call-gate overhead per FFI call";
  let results = Workloads.Microbench.run () in
  let paper = Workloads.Paper.micro_overheads in
  Util.Table.print
    ~header:[ "workload"; "ungated cyc"; "gated cyc"; "overhead"; "paper" ]
    (List.map
       (fun (r : Workloads.Microbench.result) ->
         [
           r.Workloads.Microbench.name;
           Printf.sprintf "%.1f" r.Workloads.Microbench.ungated_cycles_per_call;
           Printf.sprintf "%.1f" r.Workloads.Microbench.gated_cycles_per_call;
           ratio r.Workloads.Microbench.overhead_x;
           ratio (List.assoc r.Workloads.Microbench.name paper);
         ])
       results);
  [
    ( "micro.json",
      Util.Json.List
        (List.map
           (fun (r : Workloads.Microbench.result) ->
             Util.Json.Obj
               [
                 ("name", Util.Json.String r.Workloads.Microbench.name);
                 ("ungated", Util.Json.Float r.Workloads.Microbench.ungated_cycles_per_call);
                 ("gated", Util.Json.Float r.Workloads.Microbench.gated_cycles_per_call);
                 ("overhead_x", Util.Json.Float r.Workloads.Microbench.overhead_x);
               ])
           results) );
  ]

(* --- Figure 3 --- *)

let run_fig3 () =
  header "Figure 3: call-gate overhead vs work between transitions";
  let loop_counts = [ 0; 5; 10; 25; 50; 75; 100; 125; 150; 175; 200 ] in
  let sweep = Workloads.Microbench.sweep ~loop_counts () in
  Util.Table.print
    ~header:[ "loop count"; "normalized runtime"; "" ]
    (List.map
       (fun (loops, overhead) ->
         [ string_of_int loops; Printf.sprintf "%.2f" overhead; bar ~scale:8.0 overhead ])
       sweep);
  print_endline "(paper: starts near the Empty ratio and decays toward 1.0 by loop count 200)";
  [
    ( "fig3.json",
      Util.Json.List
        (List.map
           (fun (loops, overhead) ->
             Util.Json.Obj
               [ ("loop_count", Util.Json.Int loops); ("normalized", Util.Json.Float overhead) ])
           sweep) );
  ]

(* --- Suite execution (shared by Table 1/2 and Figures 4-7) --- *)

let tty = Unix.isatty Unix.stdout

let run_suite_with_progress suite =
  let progress name = if tty then Printf.printf "  running %-36s\r%!" name in
  let result = Workloads.Runner.run_suite ~progress suite in
  if tty then Printf.printf "%-48s\r%!" "";
  result

let suite_rows runs =
  List.map
    (fun (label, (result : Workloads.Runner.suite_result)) ->
      [
        label;
        pct result.Workloads.Runner.mean_alloc_pct;
        pct result.Workloads.Runner.mean_mpk_pct;
        string_of_int result.Workloads.Runner.total_transitions;
        Printf.sprintf "%.2f%%" result.Workloads.Runner.mean_pct_mu;
      ])
    runs

let print_fig ~title (result : Workloads.Runner.suite_result) =
  header title;
  Util.Table.print
    ~header:[ "benchmark"; "alloc"; "mpk"; "mpk normalized" ]
    (List.map
       (fun (r : Workloads.Runner.bench_result) ->
         let norm m =
           float_of_int m.Workloads.Runner.cycles
           /. float_of_int r.Workloads.Runner.base.Workloads.Runner.cycles
         in
         [
           r.Workloads.Runner.bench;
           Printf.sprintf "%.3f" (norm r.Workloads.Runner.alloc);
           Printf.sprintf "%.3f" (norm r.Workloads.Runner.mpk);
           bar ~scale:40.0 (norm r.Workloads.Runner.mpk);
         ])
       result.Workloads.Runner.bench_results);
  let disagreements =
    List.filter
      (fun (r : Workloads.Runner.bench_result) -> not r.Workloads.Runner.outputs_agree)
      result.Workloads.Runner.bench_results
  in
  if disagreements <> [] then
    Printf.printf "WARNING: %d benchmarks produced diverging outputs!\n" (List.length disagreements)

(* The four suite runs are the only results shared between sections:
   Table 1 reads all of them, Table 2 the Dromaeo sub-suites and Figures
   5-7 one suite each.  Whichever section runs first pays for the run. *)
let dromaeo_sub_runs =
  lazy
    (List.map
       (fun s -> (s.Workloads.Bench_def.suite_name, run_suite_with_progress s))
       Workloads.Dromaeo.sub_suites)

let kraken_run = lazy (run_suite_with_progress Workloads.Kraken.all)
let octane_run = lazy (run_suite_with_progress Workloads.Octane.all)
let jetstream_run = lazy (run_suite_with_progress Workloads.Jetstream.all)

let dromaeo_aggregate () =
  let subs = Lazy.force dromaeo_sub_runs in
  let means f = Util.Stats.mean (List.map (fun (_, r) -> f r) subs) in
  ( means (fun r -> r.Workloads.Runner.mean_alloc_pct),
    means (fun r -> r.Workloads.Runner.mean_mpk_pct),
    List.fold_left (fun acc (_, r) -> acc + r.Workloads.Runner.total_transitions) 0 subs,
    means (fun r -> r.Workloads.Runner.mean_pct_mu) )

(* Artifact-style machine-readable suite results (the docker image's
   bench-results/*.json folders), one file per suite. *)
let measurement_json (m : Workloads.Runner.measurement) =
  Util.Json.Obj
    ([
       ("cycles", Util.Json.Int m.Workloads.Runner.cycles);
       ("transitions", Util.Json.Int m.Workloads.Runner.transitions);
       ("pct_mu", Util.Json.Float m.Workloads.Runner.pct_mu);
     ]
    @ (match m.Workloads.Runner.trace with
      | Some sink ->
        let attribution =
          Telemetry.Attribution.of_sink ~total_cycles:m.Workloads.Runner.cycles sink
        in
        [
          ( "telemetry",
            Telemetry.Export.summary_json ?census:m.Workloads.Runner.census sink );
          ("site_heat", Telemetry.Attribution.site_heat_json ~limit:10 attribution);
          ("flow_matrix", Telemetry.Attribution.flow_json attribution);
        ]
      | None -> [])
    @ (match m.Workloads.Runner.census with
      | Some census -> [ ("census", Telemetry.Census.digest_json census) ]
      | None -> [])
    @
    match m.Workloads.Runner.samples with
    | Some sampler -> [ ("profile", Telemetry.Sampler.to_json sampler) ]
    | None -> [])

let suite_file label (result : Workloads.Runner.suite_result) =
  ( label ^ ".json",
    Util.Json.Obj
      [
        ("suite", Util.Json.String result.Workloads.Runner.suite);
        ("mean_alloc_pct", Util.Json.Float result.Workloads.Runner.mean_alloc_pct);
        ("mean_mpk_pct", Util.Json.Float result.Workloads.Runner.mean_mpk_pct);
        ("total_transitions", Util.Json.Int result.Workloads.Runner.total_transitions);
        ("pct_mu", Util.Json.Float result.Workloads.Runner.mean_pct_mu);
        ( "benchmarks",
          Util.Json.List
            (List.map
               (fun (r : Workloads.Runner.bench_result) ->
                 Util.Json.Obj
                   [
                     ("name", Util.Json.String r.Workloads.Runner.bench);
                     ("base", measurement_json r.Workloads.Runner.base);
                     ("alloc", measurement_json r.Workloads.Runner.alloc);
                     ("mpk", measurement_json r.Workloads.Runner.mpk);
                     ("alloc_overhead_pct", Util.Json.Float r.Workloads.Runner.alloc_overhead_pct);
                     ("mpk_overhead_pct", Util.Json.Float r.Workloads.Runner.mpk_overhead_pct);
                     ("outputs_agree", Util.Json.Bool r.Workloads.Runner.outputs_agree);
                   ])
               result.Workloads.Runner.bench_results) );
      ] )

let dromaeo_files () =
  List.map (fun (label, r) -> suite_file ("dromaeo-" ^ label) r) (Lazy.force dromaeo_sub_runs)

(* --- Table 1 --- *)

let run_table1 () =
  header "Table 1: Servo-equivalent mean benchmark overhead and statistics";
  let d_alloc, d_mpk, d_trans, d_mu = dromaeo_aggregate () in
  let measured =
    [ "Dromaeo"; pct d_alloc; pct d_mpk; string_of_int d_trans; Printf.sprintf "%.2f%%" d_mu ]
    :: suite_rows
         [
           ("JetStream2", Lazy.force jetstream_run);
           ("Kraken", Lazy.force kraken_run);
           ("Octane", Lazy.force octane_run);
         ]
  in
  Util.Table.print ~header:[ "suite"; "alloc"; "mpk"; "transitions"; "%MU" ] measured;
  print_endline "\nPaper (Table 1):";
  Util.Table.print ~header:[ "suite"; "alloc"; "mpk"; "transitions"; "%MU" ]
    (List.map
       (fun (row : Workloads.Paper.table1_row) ->
         [
           row.Workloads.Paper.t1_suite;
           pct row.Workloads.Paper.t1_alloc_pct;
           pct row.Workloads.Paper.t1_mpk_pct;
           string_of_int row.Workloads.Paper.t1_transitions;
           Printf.sprintf "%.2f%%" row.Workloads.Paper.t1_pct_mu;
         ])
       Workloads.Paper.table1);
  dromaeo_files ()
  @ [
      suite_file "kraken" (Lazy.force kraken_run);
      suite_file "octane" (Lazy.force octane_run);
      suite_file "jetstream2" (Lazy.force jetstream_run);
    ]

(* --- Table 2 / Figure 4 --- *)

let run_table2 () =
  header "Table 2 / Figure 4: Dromaeo sub-suite overhead and statistics";
  let subs = Lazy.force dromaeo_sub_runs in
  let d_alloc, d_mpk, _, _ = dromaeo_aggregate () in
  Util.Table.print
    ~header:[ "sub-suite"; "alloc"; "mpk"; "transitions"; "%MU" ]
    (suite_rows subs @ [ [ "mean"; pct d_alloc; pct d_mpk; "-"; "-" ] ]);
  print_endline "\nPaper (Table 2):";
  Util.Table.print
    ~header:[ "sub-suite"; "alloc"; "mpk"; "transitions"; "%MU" ]
    (List.map
       (fun (row : Workloads.Paper.table2_row) ->
         [
           row.Workloads.Paper.t2_sub;
           pct row.Workloads.Paper.t2_alloc_pct;
           pct row.Workloads.Paper.t2_mpk_pct;
           (match row.Workloads.Paper.t2_transitions with
           | Some n -> string_of_int n
           | None -> "-");
           Printf.sprintf "%.2f%%" row.Workloads.Paper.t2_pct_mu;
         ])
       Workloads.Paper.table2
    @ [
        [ "mean"; pct Workloads.Paper.table2_mean_alloc; pct Workloads.Paper.table2_mean_mpk;
          "-"; "-" ];
      ]);
  print_endline "\nFigure 4 (normalized mpk runtime per sub-suite):";
  List.iter
    (fun (label, (result : Workloads.Runner.suite_result)) ->
      let norm = 1.0 +. (result.Workloads.Runner.mean_mpk_pct /. 100.0) in
      Printf.printf "  %-10s %.3f %s\n" label norm (bar ~scale:40.0 norm))
    subs;
  dromaeo_files ()

(* --- Figures 5-7, Table 3 --- *)

let run_fig ~title ~file run () =
  let result = Lazy.force run in
  print_fig ~title result;
  [ suite_file file result ]

let run_fig7 () =
  let artifacts =
    run_fig ~title:"Figure 7: JetStream2 normalized runtime" ~file:"jetstream2" jetstream_run ()
  in
  header "Table 3: JetStream2 overall scores (geometric mean; higher is better)";
  let score = Workloads.Runner.geomean_score (Lazy.force jetstream_run) in
  let base = score Pkru_safe.Config.Base in
  let alloc = score Pkru_safe.Config.Alloc in
  let mpk = score Pkru_safe.Config.Mpk in
  let overhead s = (base -. s) /. s *. 100.0 in
  Util.Table.print
    ~header:[ ""; "base"; "alloc"; "mpk" ]
    [
      [ "score (base = 100)"; "100.00"; Printf.sprintf "%.2f" (alloc /. base *. 100.0);
        Printf.sprintf "%.2f" (mpk /. base *. 100.0) ];
      [ "overhead"; "-"; pct (overhead alloc); pct (overhead mpk) ];
    ];
  print_endline "\nPaper (Table 3): scores 60.31 / 61.20 / 59.94 -> overhead alloc -1.48%, mpk +0.61%";
  artifacts

(* --- Software-TLB microbench --- *)

let run_tlb () =
  header "Software TLB: page-hot checked-access loop, host wall-clock";
  let r = Workloads.Microbench.tlb_hot () in
  if r.Workloads.Microbench.cycles_on <> r.Workloads.Microbench.cycles_off then
    failwith
      (Printf.sprintf "TLB changed simulated cycles: %d (on) vs %d (off)"
         r.Workloads.Microbench.cycles_on r.Workloads.Microbench.cycles_off);
  Printf.printf "working set %d pages x %d rounds (read+write u64 per page)\n"
    r.Workloads.Microbench.pages r.Workloads.Microbench.iters;
  Util.Table.print
    ~header:[ "config"; "host wall ms"; "sim cycles" ]
    [
      [ "tlb off"; Printf.sprintf "%.1f" (1000.0 *. r.Workloads.Microbench.wall_off_s);
        string_of_int r.Workloads.Microbench.cycles_off ];
      [ "tlb on"; Printf.sprintf "%.1f" (1000.0 *. r.Workloads.Microbench.wall_on_s);
        string_of_int r.Workloads.Microbench.cycles_on ];
    ];
  let stats = r.Workloads.Microbench.tlb in
  Printf.printf "speedup: %.2fx  hit rate: %.2f%% (%d hits, %d misses, %d flush generations)\n"
    r.Workloads.Microbench.speedup
    (100.0 *. Sim.Tlb.hit_rate stats)
    stats.Sim.Tlb.hits stats.Sim.Tlb.misses stats.Sim.Tlb.flushes;
  print_endline "(simulated cycles are identical by construction: the TLB is architecturally invisible)";
  [
    ( "host.json",
      Util.Json.Obj
        [
          ( "tlb",
            Util.Json.Obj
              [
                ("pages", Util.Json.Int r.Workloads.Microbench.pages);
                ("iters", Util.Json.Int r.Workloads.Microbench.iters);
                ("wall_on_s", Util.Json.Float r.Workloads.Microbench.wall_on_s);
                ("wall_off_s", Util.Json.Float r.Workloads.Microbench.wall_off_s);
                ("speedup", Util.Json.Float r.Workloads.Microbench.speedup);
                ("cycles_on", Util.Json.Int r.Workloads.Microbench.cycles_on);
                ("cycles_off", Util.Json.Int r.Workloads.Microbench.cycles_off);
                ("cycles_identical", Util.Json.Bool true);
                ("hits", Util.Json.Int stats.Sim.Tlb.hits);
                ("misses", Util.Json.Int stats.Sim.Tlb.misses);
                ("flushes", Util.Json.Int stats.Sim.Tlb.flushes);
              ] );
        ] );
  ]

(* --- §5.4 Security --- *)

let run_security () =
  header "Security (paper 5.4 / E3): CVE-2019-11707-style arbitrary write";
  let outcomes =
    List.filter_map
      (fun mode ->
        match Exploit.run mode with
        | Ok outcome ->
          Format.printf "%a@." Exploit.pp_outcome outcome;
          Some outcome
        | Error msg ->
          Printf.printf "error: %s\n" msg;
          None)
      [ Pkru_safe.Config.Base; Pkru_safe.Config.Mpk ]
  in
  print_endline
    "(paper: the base build's secret is overwritten 42 -> 1337; the mpk build dies on an MPK violation)";
  [
    ( "security.json",
      Util.Json.List
        (List.map
           (fun (o : Exploit.outcome) ->
             Util.Json.Obj
               [
                 ("mode", Util.Json.String (Pkru_safe.Config.mode_to_string o.Exploit.mode));
                 ("secret_before", Util.Json.Int o.Exploit.secret_before);
                 ("secret_after", Util.Json.Int o.Exploit.secret_after);
                 ("crashed", Util.Json.Bool o.Exploit.crashed);
               ])
           outcomes) );
  ]

(* --- §5.3 site statistics --- *)

let run_sites () =
  header "Allocation-site statistics (paper 5.3)";
  let bench =
    Workloads.Bench_def.bench ~page:(Workloads.Dom_scripts.page ~rows:12) "site-stats"
      (Workloads.Dom_scripts.dom_attr ~iters:60)
  in
  let suite = { Workloads.Bench_def.suite_name = "sites"; benches = [ bench ] } in
  let profile = Workloads.Runner.profile_suite suite in
  let env = env_exn ~profile Pkru_safe.Config.Mpk in
  let browser = Browser.create env in
  Browser.load_page browser bench.Workloads.Bench_def.page;
  ignore (Browser.exec_script browser bench.Workloads.Bench_def.script);
  let used = Pkru_safe.Env.sites_used env in
  let moved = Pkru_safe.Env.sites_moved env in
  Printf.printf "browser substrate: %d of %d exercised sites moved to MU (%.2f%%)\n" moved used
    (100.0 *. float_of_int moved /. float_of_int (max used 1));
  Printf.printf "paper (Servo):     %d of %d allocation sites moved to MU (%.2f%%)\n"
    Workloads.Paper.servo_sites_moved Workloads.Paper.servo_alloc_sites
    (100.0
    *. float_of_int Workloads.Paper.servo_sites_moved
    /. float_of_int Workloads.Paper.servo_alloc_sites);
  []

(* --- Ablations --- *)

let run_ablations () =
  header "Ablation: MU allocator choice (paper 5.3)";
  let slow, fast = Workloads.Ablation.fast_mu_allocator () in
  Printf.printf "alloc-config overhead with libc-style MU allocator: %s\n" (pct slow);
  Printf.printf "alloc-config overhead with jemalloc-style MU:       %s\n" (pct fast);
  print_endline "(paper: replacing the MU allocator removed any detectable allocator overhead)";
  header "Ablation: WRPKRU cost sweep (gate-bound workload)";
  let sweep = Workloads.Ablation.gate_cost_sweep ~wrpkru_costs:[ 0; 7; 14; 28; 56; 112 ] in
  Util.Table.print
    ~header:[ "wrpkru cycles"; "mpk overhead" ]
    (List.map (fun (c, o) -> [ string_of_int c; pct o ]) sweep);
  header "Ablation: profile coverage (paper 6: missed dataflows crash)";
  let coverage =
    Workloads.Ablation.profile_coverage ~fractions:[ 1.0; 0.75; 0.5; 0.25; 0.0 ] ~seed:11
  in
  Util.Table.print
    ~header:[ "profile kept"; "enforcement run" ]
    (List.map
       (fun (f, survived) ->
         [ Printf.sprintf "%.0f%%" (100.0 *. f); (if survived then "completed" else "CRASHED") ])
       coverage);
  header "Ablation: engine execution tier (AST walker vs bytecode VM)";
  (let cycles tier =
     let env = env_exn Pkru_safe.Config.Base in
     let engine = Engine.create ~seed:7 env in
     ignore (Engine.eval_string ~tier engine (Workloads.Kernels.fft ~n:256));
     Pkru_safe.Env.cycles env
   in
   let ast = cycles Engine.Ast_tier in
   let bc = cycles Engine.Bytecode_tier in
   Printf.printf "fft kernel, AST tier:      %8d cycles\n" ast;
   Printf.printf "fft kernel, bytecode tier: %8d cycles (%+.2f%%)\n" bc
     (Util.Stats.percent_overhead ~baseline:(float_of_int ast) ~measured:(float_of_int bc));
   print_endline "(both tiers are observationally identical; see the differential tests)");
  header "Ablation: static analysis vs dynamic profiling (paper 6)";
  (let source =
     (* The smallest mixed-language module with one shared allocation:
        trusted main allocates a buffer, untrusted u_write stores 1337
        into it, and main returns what it reads back. *)
     let m = Ir.Module_ir.create () in
     let u = Ir.Builder.create ~name:"u_write" ~crate:"clib" ~nparams:1 () in
     Ir.Builder.store u ~src:(Ir.Instr.Imm 1337) ~addr:(Ir.Instr.Reg 0) ();
     Ir.Builder.ret u None;
     Ir.Module_ir.add_func m (Ir.Builder.finish u);
     Ir.Module_ir.mark_untrusted m "clib";
     let f = Ir.Builder.create ~name:"main" ~crate:"app" ~nparams:0 () in
     let shared = Ir.Builder.alloc f (Ir.Instr.Imm 64) in
     ignore (Ir.Builder.call f "u_write" [ Ir.Instr.Reg shared ]);
     let v = Ir.Builder.load f (Ir.Instr.Reg shared) in
     Ir.Builder.ret f (Some (Ir.Instr.Reg v));
     Ir.Module_ir.add_func m (Ir.Builder.finish f);
     m
   in
   let ok = function Ok r -> r | Error msg -> failwith msg in
   let dynamic =
     ok
       (Toolchain.Pipeline.collect_profile source
          ~inputs:[ (fun i -> ignore (Toolchain.Interp.run i "main" [])) ])
   in
   let dyn_build =
     ok (Toolchain.Pipeline.build ~profile:dynamic ~mode:Pkru_safe.Config.Mpk source)
   in
   let static_build, static_result =
     ok (Toolchain.Pipeline.build_static ~mode:Pkru_safe.Config.Mpk source)
   in
   let run b = Toolchain.Interp.run b.Toolchain.Pipeline.interp "main" [] in
   Printf.printf "dynamic profile: %d site(s) moved, main() = %d\n"
     dyn_build.Toolchain.Pipeline.pass_stats.Ir.Passes.sites_moved (run dyn_build);
   Printf.printf "static analysis: %d site(s) moved (%d fixpoint rounds), main() = %d\n"
     static_build.Toolchain.Pipeline.pass_stats.Ir.Passes.sites_moved
     static_result.Ir.Static_taint.iterations (run static_build);
   print_endline
     "(paper: the static alternative works on small programs but over-approximates; both agree here)");
  header "Ablation: single-step profiling vs switch-on-fault (paper 4.3.2)";
  let stepped, switched = Workloads.Ablation.single_step_vs_switch () in
  Printf.printf "sites recorded with single-stepping:       %d\n" stepped;
  Printf.printf "sites recorded with compartment-switching: %d (misses later flows)\n" switched;
  []

(* --- Mitigation: enforcement-mode fault-recovery policies --- *)

let mitigation_seed = 1337

let mitigation_bench =
  Workloads.Bench_def.bench
    ~page:(Workloads.Dom_scripts.page ~rows:8)
    "mitigation" (Workloads.Dom_scripts.dom_attr ~iters:60)

let run_mitigation () =
  header "Mitigation: fault-recovery policy overhead (full profile, no faults)";
  let profile =
    Workloads.Runner.profile_suite
      { Workloads.Bench_def.suite_name = "mitigation"; benches = [ mitigation_bench ] }
  in
  let cycles ?mitigation () =
    (Workloads.Runner.run_config ?mitigation ~mode:Pkru_safe.Config.Mpk ~profile mitigation_bench)
      .Workloads.Runner.cycles
  in
  let baseline = cycles () in
  let per_policy =
    List.map (fun policy -> (policy, cycles ~mitigation:policy ())) Runtime.Mitigator.all_policies
  in
  Util.Table.print
    ~header:[ "policy"; "cycles"; "vs no mitigator" ]
    ([ "(none)"; string_of_int baseline; "-" ]
    :: List.map
         (fun (policy, c) ->
           [
             Runtime.Mitigator.policy_to_string policy;
             string_of_int c;
             (if c = baseline then "identical"
              else
                pct
                  (Util.Stats.percent_overhead ~baseline:(float_of_int baseline)
                     ~measured:(float_of_int c)));
           ])
         per_policy);
  print_endline
    "(an installed mitigator costs nothing until an unprofiled site faults; Abort is\n\
    \ bit-identical to no mitigator by construction)";
  header "Mitigation: coverage-gap chaos run per policy (10% of profile dropped)";
  let reports =
    List.map
      (fun policy ->
        (policy, Chaos.run ~scenario:Chaos.Coverage_gap ~policy ~seed:mitigation_seed ()))
      Runtime.Mitigator.all_policies
  in
  Util.Table.print
    ~header:[ "policy"; "outcome"; "incidents"; "rerun"; "promoted sites"; "invariants" ]
    (List.map
       (fun (policy, (r : Chaos.report)) ->
         [
           Runtime.Mitigator.policy_to_string policy;
           r.Chaos.outcome;
           string_of_int r.Chaos.incidents;
           (match r.Chaos.rerun_incidents with Some n -> string_of_int n | None -> "-");
           string_of_int (List.length r.Chaos.promoted_sites);
           (if r.Chaos.invariant_failures = [] then "ok"
            else String.concat "; " r.Chaos.invariant_failures);
         ])
       reports);
  print_endline
    "(abort dies exactly like the seed; emulate/promote complete with incidents counted;\n\
    \ promote's rerun faults strictly less: quarantined sites now allocate in MU)";
  [
    ( "mitigation.json",
      Util.Json.Obj
        [
          ("seed", Util.Json.Int mitigation_seed);
          ( "full_profile_cycles",
            Util.Json.Obj
              (("none", Util.Json.Int baseline)
              :: List.map
                   (fun (policy, c) -> (Runtime.Mitigator.policy_to_string policy, Util.Json.Int c))
                   per_policy) );
          ( "coverage_gap",
            Util.Json.List (List.map (fun (_, r) -> Chaos.report_to_json r) reports) );
        ] );
  ]

(* --- Heap census + provenance audit --- *)

let census_every_default = 128

let census_bench =
  Workloads.Bench_def.bench
    ~page:(Workloads.Dom_scripts.page ~rows:12)
    "census" (Workloads.Dom_scripts.dom_attr ~iters:60)

(* One telemetry-instrumented run per substrate family: histogram
   summaries (gate round-trip, allocation sizes, fault service) plus the
   attribution digests — site heat, the compartment flow matrix and the
   cycle-sampled folded stacks.  The traced runs are separate from every
   timing run, so telemetry cannot perturb the reported numbers even in
   principle. *)
let traced_bench name bench =
  let suite = { Workloads.Bench_def.suite_name = name; benches = [ bench ] } in
  let profile = Workloads.Runner.profile_suite suite in
  let m =
    Workloads.Runner.run_config ~telemetry:true ~sample_every:64 ~mode:Pkru_safe.Config.Mpk
      ~profile bench
  in
  ( name,
    match m.Workloads.Runner.trace with
    | Some sink ->
      let attribution =
        Telemetry.Attribution.of_sink ~total_cycles:m.Workloads.Runner.cycles sink
      in
      Util.Json.Obj
        ([
           ("summary", Telemetry.Export.summary_json sink);
           ("site_heat", Telemetry.Attribution.site_heat_json ~limit:10 attribution);
           ("flow_matrix", Telemetry.Attribution.flow_json attribution);
         ]
        @
        match m.Workloads.Runner.samples with
        | Some sampler -> [ ("profile", Telemetry.Sampler.to_json sampler) ]
        | None -> [])
    | None -> Util.Json.Null )

(* One uncensused and one censused run (cycles must be identical — the
   census is architecturally invisible), a post-run provenance scan that
   must find no MT object reachable from U, and the traced telemetry
   runs. *)
let run_census () =
  header "Heap census + provenance audit (dom-attr, mpk)";
  let profile =
    Workloads.Runner.profile_suite
      { Workloads.Bench_def.suite_name = "census"; benches = [ census_bench ] }
  in
  let plain = Workloads.Runner.run_config ~mode:Pkru_safe.Config.Mpk ~profile census_bench in
  let censused =
    Workloads.Runner.run_config ~census_every:census_every_default ~mode:Pkru_safe.Config.Mpk
      ~profile census_bench
  in
  let audit_report =
    let env = env_exn ~profile Pkru_safe.Config.Mpk in
    Pkru_safe.Env.track_census env;
    let browser = Browser.create ~engine_seed:census_bench.Workloads.Bench_def.engine_seed env in
    Browser.load_page browser census_bench.Workloads.Bench_def.page;
    ignore (Browser.exec_script browser census_bench.Workloads.Bench_def.script);
    Audit.scan
      ~metadata:(Option.get (Pkru_safe.Env.census_metadata env))
      (Pkru_safe.Env.pkalloc env)
  in
  if plain.Workloads.Runner.cycles <> censused.Workloads.Runner.cycles then
    failwith
      (Printf.sprintf "census changed simulated cycles: %d (off) vs %d (on)"
         plain.Workloads.Runner.cycles censused.Workloads.Runner.cycles);
  Printf.printf "cycles %d with the census off and on (identical by construction)\n"
    plain.Workloads.Runner.cycles;
  let census = Option.get censused.Workloads.Runner.census in
  Printf.printf "%d snapshot(s), 1 every %d cycles\n"
    (Telemetry.Census.taken_total census)
    (Telemetry.Census.every census);
  (match Telemetry.Census.latest census with
  | None -> ()
  | Some snap ->
    Printf.printf "last snapshot (cycle %d):\n" snap.Telemetry.Census.at_cycle;
    Util.Table.print
      ~header:[ "pool"; "live bytes"; "objects"; "pages"; "peak pages"; "frag" ]
      (List.map
         (fun (p : Telemetry.Census.pool_stats) ->
           [
             p.Telemetry.Census.cp_pool;
             string_of_int p.Telemetry.Census.cp_live_bytes;
             string_of_int p.Telemetry.Census.cp_live_objects;
             string_of_int p.Telemetry.Census.cp_pages_in_use;
             string_of_int p.Telemetry.Census.cp_high_water_pages;
             Printf.sprintf "%.2f" p.Telemetry.Census.cp_fragmentation;
           ])
         snap.Telemetry.Census.pools);
    Printf.printf "%d live allocation site(s); object-age log2 buckets: %d\n"
      (List.length snap.Telemetry.Census.sites)
      (List.length (Telemetry.Histogram.nonempty_buckets snap.Telemetry.Census.ages)));
  Printf.printf "provenance audit: %d U-accessible pages, %d words — %s\n"
    audit_report.Audit.scanned_pages audit_report.Audit.scanned_words
    (if Audit.leak_free audit_report then "no MT object reachable from U"
     else
       Printf.sprintf "%d MT object(s) REACHABLE FROM U" (List.length audit_report.Audit.findings));
  if not (Audit.leak_free audit_report) then
    failwith "provenance audit found MT objects reachable from U on a seed workload";
  [
    ( "telemetry.json",
      Util.Json.Obj
        [
          traced_bench "dom-attr"
            (Workloads.Bench_def.bench ~page:(Workloads.Dom_scripts.page ~rows:12) "dom-attr"
               (Workloads.Dom_scripts.dom_attr ~iters:60));
          traced_bench "richards"
            (Workloads.Bench_def.bench "richards" (Workloads.Kernels.richards ~iterations:40));
        ] );
    ( "census.json",
      Util.Json.Obj
        [
          ("bench", Util.Json.String census_bench.Workloads.Bench_def.name);
          ("cycles_off", Util.Json.Int plain.Workloads.Runner.cycles);
          ("cycles_on", Util.Json.Int censused.Workloads.Runner.cycles);
          ("cycles_identical", Util.Json.Bool true);
          ("census", Telemetry.Census.digest_json census);
          ("audit", Audit.to_json audit_report);
        ] );
  ]

(* --- Dispatch: execution-tier equivalence + host speedup --- *)

type dispatch_row = {
  dr_label : string;
  dr_benches : int;
  dr_cycles : int;  (* summed over the suite; identical across bytecode tiers *)
  dr_wall_ast : float;
  dr_wall_ref : float;
  dr_wall_thr : float;
  dr_var_hits : int;
  dr_var_misses : int;
  dr_prop_hits : int;
  dr_prop_misses : int;
  dr_super_execs : int;
}

(* The engine-bound suites the fast tier targets.  Every bench runs under
   all three tiers; any simulated divergence between the two bytecode
   tiers is a hard failure (the threaded tier is supposed to be
   architecturally invisible), and outputs must agree with the AST tier.
   IC counters are read from each run's own engine instance (they are
   per-instance, reset at browser creation). *)
let dispatch_suites =
  [ ("dromaeo-v8", Workloads.Dromaeo.v8); ("octane", Workloads.Octane.all) ]

let run_dispatch_suite (label, (suite : Workloads.Bench_def.suite)) =
  let profile = Runtime.Profile.create () in
  (* Setup (machine, browser, page) is untimed — only the script run is
     the engine's work; cycles/transitions are the post-setup deltas,
     exactly as [Runner.run_config] measures them. *)
  let timed_run tier (bench : Workloads.Bench_def.bench) =
    let env = env_exn ~profile Pkru_safe.Config.Base in
    let browser = Browser.create ~engine_seed:bench.Workloads.Bench_def.engine_seed env in
    Browser.load_page browser bench.Workloads.Bench_def.page;
    Pkru_safe.Env.reset_counters env;
    Engine.reset_stats (Browser.engine browser);
    let t0 = Unix.gettimeofday () in
    ignore (Browser.exec_script ~tier browser bench.Workloads.Bench_def.script);
    let wall = Unix.gettimeofday () -. t0 in
    ( wall,
      Pkru_safe.Env.cycles env,
      Pkru_safe.Env.transitions env,
      Browser.console browser,
      Engine.Eval.ic_stats (Engine.evaluator (Browser.engine browser)),
      Engine.threaded_stats (Browser.engine browser) )
  in
  List.fold_left
    (fun row (bench : Workloads.Bench_def.bench) ->
      let name = bench.Workloads.Bench_def.name in
      let t_ast, _, _, out_ast, _, _ = timed_run Engine.Ast_tier bench in
      let t_ref, cyc_ref, trans_ref, out_ref, _, _ = timed_run Engine.Bytecode_tier bench in
      let t_thr, cyc_thr, trans_thr, out_thr, ic, ts = timed_run Engine.Threaded_tier bench in
      if out_ast <> out_ref || out_ref <> out_thr then
        failwith (Printf.sprintf "dispatch: %s outputs disagree across tiers" name);
      if cyc_ref <> cyc_thr || trans_ref <> trans_thr then
        failwith
          (Printf.sprintf
             "dispatch: %s simulated divergence — reference %d cycles/%d transitions vs \
              threaded %d/%d"
             name cyc_ref trans_ref cyc_thr trans_thr);
      {
        row with
        dr_cycles = row.dr_cycles + cyc_ref;
        dr_wall_ast = row.dr_wall_ast +. t_ast;
        dr_wall_ref = row.dr_wall_ref +. t_ref;
        dr_wall_thr = row.dr_wall_thr +. t_thr;
        dr_var_hits = row.dr_var_hits + ic.Engine.Eval.var_hits;
        dr_var_misses = row.dr_var_misses + ic.Engine.Eval.var_misses;
        dr_prop_hits = row.dr_prop_hits + ts.Engine.Threaded.prop_hits;
        dr_prop_misses = row.dr_prop_misses + ts.Engine.Threaded.prop_misses;
        dr_super_execs = row.dr_super_execs + ts.Engine.Threaded.super_execs;
      })
    {
      dr_label = label;
      dr_benches = List.length suite.Workloads.Bench_def.benches;
      dr_cycles = 0;
      dr_wall_ast = 0.0;
      dr_wall_ref = 0.0;
      dr_wall_thr = 0.0;
      dr_var_hits = 0;
      dr_var_misses = 0;
      dr_prop_hits = 0;
      dr_prop_misses = 0;
      dr_super_execs = 0;
    }
    suite.Workloads.Bench_def.benches

let hit_rate hits misses =
  let total = hits + misses in
  if total = 0 then 0.0 else 100.0 *. float_of_int hits /. float_of_int total

let run_dispatch () =
  header "Execution tiers: threaded dispatch + superinstructions + inline caches";
  let rows = List.map run_dispatch_suite dispatch_suites in
  Util.Table.print
    ~header:
      [ "suite"; "sim cycles"; "ast wall"; "bytecode wall"; "threaded wall"; "vs bytecode";
        "vs ast" ]
    (List.map
       (fun r ->
         [
           Printf.sprintf "%s (%d benches)" r.dr_label r.dr_benches;
           string_of_int r.dr_cycles;
           Printf.sprintf "%.1fms" (1000.0 *. r.dr_wall_ast);
           Printf.sprintf "%.1fms" (1000.0 *. r.dr_wall_ref);
           Printf.sprintf "%.1fms" (1000.0 *. r.dr_wall_thr);
           ratio (r.dr_wall_ref /. r.dr_wall_thr);
           ratio (r.dr_wall_ast /. r.dr_wall_thr);
         ])
       rows);
  List.iter
    (fun r ->
      Printf.printf
        "%s ICs: var %d/%d hits (%.1f%%), prop %d/%d hits (%.1f%%), %d superinstruction \
         executions\n"
        r.dr_label r.dr_var_hits
        (r.dr_var_hits + r.dr_var_misses)
        (hit_rate r.dr_var_hits r.dr_var_misses)
        r.dr_prop_hits
        (r.dr_prop_hits + r.dr_prop_misses)
        (hit_rate r.dr_prop_hits r.dr_prop_misses)
        r.dr_super_execs)
    rows;
  print_endline
    "(simulated cycles are identical across the bytecode tiers by construction — the \n\
    \ section hard-fails on any divergence; walls are host-side only)";
  (* Host walls go to host.json only, so dispatch.json is reproducible. *)
  let walls r =
    [
      ("ast_wall_s", Util.Json.Float r.dr_wall_ast);
      ("bytecode_wall_s", Util.Json.Float r.dr_wall_ref);
      ("threaded_wall_s", Util.Json.Float r.dr_wall_thr);
      ("speedup_vs_bytecode", Util.Json.Float (r.dr_wall_ref /. r.dr_wall_thr));
      ("speedup_vs_ast", Util.Json.Float (r.dr_wall_ast /. r.dr_wall_thr));
    ]
  in
  let per_suite fields =
    Util.Json.Obj (List.map (fun r -> (r.dr_label, Util.Json.Obj (fields r))) rows)
  in
  [
    ( "dispatch.json",
      per_suite (fun r ->
          [
            ("benches", Util.Json.Int r.dr_benches);
            ("sim_cycles", Util.Json.Int r.dr_cycles);
            ("cycles_identical", Util.Json.Bool true);
            ( "inline_caches",
              Util.Json.Obj
                [
                  ("var_hits", Util.Json.Int r.dr_var_hits);
                  ("var_misses", Util.Json.Int r.dr_var_misses);
                  ("var_hit_rate_pct", Util.Json.Float (hit_rate r.dr_var_hits r.dr_var_misses));
                  ("prop_hits", Util.Json.Int r.dr_prop_hits);
                  ("prop_misses", Util.Json.Int r.dr_prop_misses);
                  ( "prop_hit_rate_pct",
                    Util.Json.Float (hit_rate r.dr_prop_hits r.dr_prop_misses) );
                  ("super_execs", Util.Json.Int r.dr_super_execs);
                ] );
          ]) );
    ("host.json", Util.Json.Obj [ ("dispatch", per_suite walls) ]);
  ]

(* --- Fleet: multi-session scheduling throughput (per-CPU run queues) --- *)

(* Mixed-weight jobs so the latency percentiles actually spread: a light
   FFT and a heavier SHA kernel, interleaved round-robin. *)
let fleet_mixed_jobs =
  [
    Fleet.job_of_bench
      (Workloads.Bench_def.bench "fleet-light" (Workloads.Kernels.fft ~n:16));
    Fleet.job_of_bench
      (Workloads.Bench_def.bench "fleet-heavy" (Workloads.Kernels.crypto_sha ~iters:20));
  ]

let fleet_tiny_job =
  Fleet.job_of_bench (Workloads.Bench_def.bench "fleet-tiny" "var x = 1;")

let fleet_ident_bench =
  Workloads.Bench_def.bench ~page:(Workloads.Dom_scripts.page ~rows:8) "fleet-ident"
    (Workloads.Dom_scripts.dom_attr ~iters:12)

let fleet_point ~sessions ~cpus jobs =
  let t0 = Unix.gettimeofday () in
  let r = Fleet.run ~cpus ~timeslice:500 ~max_live:64 ~sessions jobs in
  let wall = Unix.gettimeofday () -. t0 in
  if r.Fleet.r_completed <> sessions then
    failwith
      (Printf.sprintf "fleet: %d of %d session(s) did not complete (%d oom, %d failed)"
         (sessions - r.Fleet.r_completed)
         sessions r.Fleet.r_oom r.Fleet.r_failed);
  (r, wall)

let fleet_trace_json sink =
  Util.Json.to_string
    (Util.Json.List (List.map Telemetry.Event.record_to_json (Telemetry.Sink.events sink)))

(* Single-session bit-identity vs the plain runner: same cycles, same
   transitions, same event trace — with a timeslice small enough that the
   fleet run yields mid-script, proving the yield hook is architecturally
   invisible.  Returns (cycles, yields) for the report. *)
let fleet_identity () =
  let profile = Runtime.Profile.create () in
  let runner =
    Workloads.Runner.run_config ~telemetry:true ~mode:Pkru_safe.Config.Base ~profile
      fleet_ident_bench
  in
  let fleet =
    Fleet.run ~telemetry:true ~timeslice:200 ~sessions:1 [ Fleet.job_of_bench fleet_ident_bench ]
  in
  let sr = List.hd fleet.Fleet.r_results in
  if sr.Fleet.sr_cycles <> runner.Workloads.Runner.cycles then
    failwith
      (Printf.sprintf "fleet: single-session cycles diverge from runner — %d vs %d"
         sr.Fleet.sr_cycles runner.Workloads.Runner.cycles);
  if sr.Fleet.sr_transitions <> runner.Workloads.Runner.transitions then
    failwith
      (Printf.sprintf "fleet: single-session transitions diverge from runner — %d vs %d"
         sr.Fleet.sr_transitions runner.Workloads.Runner.transitions);
  (match (fleet.Fleet.r_trace, runner.Workloads.Runner.trace) with
  | Some ft, Some rt ->
    if fleet_trace_json ft <> fleet_trace_json rt then
      failwith "fleet: single-session event trace diverges from runner";
    List.iter
      (fun counter ->
        if Telemetry.Sink.count ft counter <> Telemetry.Sink.count rt counter then
          failwith
            (Printf.sprintf "fleet: single-session counter %S diverges from runner" counter))
      [ "tlb_hit"; "tlb_miss"; "tlb_flush"; "engine_selector_hit"; "engine_selector_miss" ]
  | _ -> failwith "fleet: missing trace on one side of the identity check");
  (sr.Fleet.sr_cycles, fleet.Fleet.r_yields)

let run_fleet () =
  header "Fleet: N concurrent sessions, per-CPU run queues, cooperative scheduling";
  (* The scaling table (1k at 1/2/4 CPUs, 10k at 4) plus the 100k smoke. *)
  let scale =
    List.map
      (fun (sessions, cpus) -> fleet_point ~sessions ~cpus fleet_mixed_jobs)
      [ (1_000, 1); (1_000, 2); (1_000, 4); (10_000, 4) ]
  in
  let smoke, smoke_wall = fleet_point ~sessions:100_000 ~cpus:4 [ fleet_tiny_job ] in
  Util.Table.print
    ~header:
      [ "sessions"; "cpus"; "sessions/sec"; "p50 latency"; "p99 latency"; "yields"; "steals";
        "host wall" ]
    (List.map
       (fun ((r : Fleet.result), wall) ->
         [
           string_of_int r.Fleet.r_sessions;
           string_of_int r.Fleet.r_cpus;
           Printf.sprintf "%.0f" r.Fleet.r_sessions_per_sec;
           Printf.sprintf "%.0fns" r.Fleet.r_p50_latency_ns;
           Printf.sprintf "%.0fns" r.Fleet.r_p99_latency_ns;
           string_of_int r.Fleet.r_yields;
           string_of_int r.Fleet.r_steals;
           Printf.sprintf "%.2fs" wall;
         ])
       (scale @ [ (smoke, smoke_wall) ]));
  let at_1k ~cpus =
    fst
      (List.find
         (fun ((r : Fleet.result), _) -> r.Fleet.r_sessions = 1_000 && r.Fleet.r_cpus = cpus)
         scale)
  in
  (* Throughput must scale: 4 CPUs at least 2x 1 CPU on the same 1k
     workload (a hard gate — the simulated scheduler has no contention
     excuse for less). *)
  let s1 = (at_1k ~cpus:1).Fleet.r_sessions_per_sec
  and s4 = (at_1k ~cpus:4).Fleet.r_sessions_per_sec in
  if s4 < 2.0 *. s1 then
    failwith
      (Printf.sprintf "fleet: poor scaling — %.0f sessions/sec at 4 CPUs vs %.0f at 1" s4 s1);
  Printf.printf "scaling 1 -> 4 CPUs: %.2fx sessions/sec\n" (s4 /. s1);
  (* Per-session results must not depend on the CPU count: each session
     owns its machine, so cycles and checksums are structural. *)
  let digest ~cpus =
    List.map
      (fun (sr : Fleet.session_result) ->
        (sr.Fleet.sr_name, sr.Fleet.sr_cycles, sr.Fleet.sr_checksum))
      (at_1k ~cpus).Fleet.r_results
  in
  if digest ~cpus:1 <> digest ~cpus:4 then
    failwith "fleet: per-session results changed with the CPU count";
  print_endline "per-session cycles/checksums identical at 1, 2 and 4 CPUs";
  let ident_cycles, ident_yields = fleet_identity () in
  Printf.printf
    "single-session fleet run bit-identical to the runner (%d cycles, %d mid-script \
     yield(s); cycles, transitions, event trace and all injected counters compared)\n"
    ident_cycles ident_yields;
  (* Host walls go to host.json only, so fleet.json is reproducible. *)
  let point (r, _) = Fleet.to_json r and wall (_, w) = Util.Json.Float w in
  [
    ( "host.json",
      Util.Json.Obj
        [
          ( "fleet",
            Util.Json.Obj
              [
                ("scaling_wall_s", Util.Json.List (List.map wall scale));
                ("smoke_100k_wall_s", Util.Json.Float smoke_wall);
              ] );
        ] );
    ( "fleet.json",
      Util.Json.Obj
        [
          ("scaling", Util.Json.List (List.map point scale));
          ("smoke_100k", point (smoke, smoke_wall));
          ( "single_session_identity",
            Util.Json.Obj
              [
                ("bit_identical", Util.Json.Bool true);
                ("cycles", Util.Json.Int ident_cycles);
                ("mid_script_yields", Util.Json.Int ident_yields);
              ] );
        ] );
  ]

(* --- Garmr: attack battery + hardened-gate defense invisibility --- *)

let garmr_seed = 20_220_405

let run_garmr () =
  header "Garmr attack battery: concurrent attacks vs hardened-gate defenses";
  (* Arming every defense on a benign fleet must be architecturally
     invisible: the scrub/filter/re-verify pass paths charge no cycles
     and emit nothing, so per-session cycles, transitions and checksums —
     and the makespan — are bit-identical to the undefended run. *)
  let run defenses = Fleet.run ~defenses ~cpus:2 ~timeslice:200 ~sessions:16 fleet_mixed_jobs in
  let off = run Pkru_safe.Config.no_defenses in
  let on = run Pkru_safe.Config.all_defenses in
  let digest (r : Fleet.result) =
    List.map
      (fun (sr : Fleet.session_result) ->
        (sr.Fleet.sr_name, sr.Fleet.sr_cycles, sr.Fleet.sr_transitions, sr.Fleet.sr_checksum))
      r.Fleet.r_results
  in
  if digest off <> digest on then
    failwith "garmr: armed defenses changed a benign fleet's cycles/checksums";
  if off.Fleet.r_makespan_cycles <> on.Fleet.r_makespan_cycles then
    failwith "garmr: armed defenses changed the benign fleet's makespan";
  Printf.printf
    "invisibility: %d-session benign fleet bit-identical with all defenses armed (makespan \
     %d cycles, %d yields)\n\n"
    off.Fleet.r_sessions off.Fleet.r_makespan_cycles off.Fleet.r_yields;
  let reports = Chaos.run_attacks ~harts:2 ~seed:garmr_seed () in
  Util.Table.print
    ~header:[ "attack"; "defense"; "undefended"; "defended"; "resume kills"; "dumps" ]
    (List.map
       (fun (r : Chaos.attack_report) ->
         [
           Exploit.Garmr.attack_to_string r.Chaos.ar_attack;
           Exploit.Garmr.defense_name r.Chaos.ar_attack;
           (if Exploit.Garmr.succeeded r.Chaos.ar_undefended then "leaked" else "STOPPED?");
           (if Exploit.Garmr.defeated r.Chaos.ar_defended then "defeated" else "LEAKED?");
           string_of_int r.Chaos.ar_defended.Exploit.Garmr.g_resume_kills;
           string_of_int (List.length r.Chaos.ar_flight_dumps);
         ])
       reports);
  let broken = List.concat_map (fun r -> r.Chaos.ar_invariant_failures) reports in
  if broken <> [] then
    failwith ("garmr: battery invariants violated — " ^ String.concat "; " broken);
  Printf.printf
    "\nall %d attack classes leak the secret undefended and are defeated defended (seed %d)\n"
    (List.length reports) garmr_seed;
  [
    ( "garmr.json",
      Util.Json.Obj
        [
          ( "invisibility",
            Util.Json.Obj
              [
                ("bit_identical", Util.Json.Bool true);
                ("sessions", Util.Json.Int off.Fleet.r_sessions);
                ("makespan_cycles", Util.Json.Int off.Fleet.r_makespan_cycles);
              ] );
          ("seed", Util.Json.Int garmr_seed);
          ("battery", Util.Json.List (List.map Chaos.attack_report_to_json reports));
        ] );
  ]

(* --- Bechamel --- *)

let run_bechamel () =
  header "Bechamel wall-clock micro-benchmarks (scaled-down experiment per table/figure)";
  let open Bechamel in
  let gate_env = env_exn ~profile:(Runtime.Profile.create ()) Pkru_safe.Config.Mpk in
  let gate = Pkru_safe.Env.gate gate_env in
  let machine = Pkru_safe.Env.machine gate_env in
  let buf = Pkru_safe.Env.malloc_untrusted gate_env 64 in
  let mk_suite_test ~name bench =
    let suite = { Workloads.Bench_def.suite_name = name; benches = [ bench ] } in
    let profile = Workloads.Runner.profile_suite suite in
    Test.make ~name
      (Staged.stage (fun () ->
           ignore (Workloads.Runner.run_config ~mode:Pkru_safe.Config.Mpk ~profile bench)))
  in
  let tests =
    [
      Test.make ~name:"micro.table"
        (Staged.stage (fun () -> ignore (Workloads.Microbench.run ~iterations:50 ())));
      Test.make ~name:"fig3.gate-roundtrip"
        (Staged.stage (fun () -> Runtime.Gate.call_untrusted gate (fun () -> ())));
      Test.make ~name:"sim.read_write_u64"
        (Staged.stage (fun () ->
             Sim.Machine.write_u64 machine buf 42;
             ignore (Sim.Machine.read_u64 machine buf)));
      mk_suite_test ~name:"table1.dromaeo-dom"
        (Workloads.Bench_def.bench ~page:(Workloads.Dom_scripts.page ~rows:4) "t1"
           (Workloads.Dom_scripts.dom_attr ~iters:8));
      mk_suite_test ~name:"table2.fig4.dromaeo-v8"
        (Workloads.Bench_def.bench "t2" (Workloads.Kernels.richards ~iterations:25));
      mk_suite_test ~name:"fig5.kraken-fft"
        (Workloads.Bench_def.bench "f5" (Workloads.Kernels.fft ~n:64));
      mk_suite_test ~name:"fig6.octane-splay"
        (Workloads.Bench_def.bench "f6" (Workloads.Kernels.splay ~nodes:60 ~lookups:60));
      mk_suite_test ~name:"fig7.table3.jetstream-sha"
        (Workloads.Bench_def.bench "f7" (Workloads.Kernels.crypto_sha ~iters:250));
    ]
  in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.4) ~kde:None () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"pkru" ~fmt:"%s %s" tests) in
  let results = Analyze.all ols (List.hd instances) raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  Util.Table.print
    ~header:[ "benchmark"; "ns/run" ]
    (List.map
       (fun (name, ols) ->
         let estimate =
           match Analyze.OLS.estimates ols with
           | Some (e :: _) -> Printf.sprintf "%.0f" e
           | _ -> "n/a"
         in
         [ name; estimate ])
       (List.sort compare rows));
  []

(* --- Command line and the section registry --- *)

(* Every section in run order.  Each function computes its results once,
   fails on a broken hard gate, prints its report and returns the JSON
   artifacts it owns: the files written under --json, plus blocks for
   host.json returned under that name. *)
let sections =
  [
    ("micro", run_micro);
    ("fig3", run_fig3);
    ("table1", run_table1);
    ("table2", run_table2);
    ("fig5", run_fig ~title:"Figure 5: Kraken normalized runtime" ~file:"kraken" kraken_run);
    ("fig6", run_fig ~title:"Figure 6: Octane normalized runtime" ~file:"octane" octane_run);
    ("fig7", run_fig7);
    ("security", run_security);
    ("sites", run_sites);
    ("ablations", run_ablations);
    ("tlb", run_tlb);
    ("mitigation", run_mitigation);
    ("census", run_census);
    ("dispatch", run_dispatch);
    ("fleet", run_fleet);
    ("garmr", run_garmr);
    ("bechamel", run_bechamel);
  ]

type options = {
  skip_bechamel : bool;
  only : string list;
  json_dir : string option;
}

let usage = "main.exe [--skip-bechamel] [--only SECTION]... [--json DIR]"

(* Argument errors print one line and exit 2 before any section runs. *)
let usage_error fmt = Printf.ksprintf (fun msg -> prerr_endline ("bench: " ^ msg); exit 2) fmt

(* Every check runs before any section: each --only name must be a
   section, and the --json directory is created (or found) here, so an
   unusable one fails first. *)
let parse_args args =
  let rec go o = function
    | [] -> o
    | "--skip-bechamel" :: rest -> go { o with skip_bechamel = true } rest
    | "--only" :: name :: rest -> go { o with only = name :: o.only } rest
    | "--json" :: dir :: rest -> go { o with json_dir = Some dir } rest
    | [ ("--only" | "--json") as flag ] -> usage_error "%s needs a value; usage: %s" flag usage
    | arg :: _ -> usage_error "unknown argument %s; usage: %s" arg usage
  in
  let o = go { skip_bechamel = false; only = []; json_dir = None } args in
  List.iter
    (fun name ->
      if not (List.mem_assoc name sections) then
        usage_error "unknown section %S; sections: %s" name
          (String.concat " " (List.map fst sections)))
    o.only;
  Option.iter
    (fun dir ->
      match Sys.mkdir dir 0o755 with
      | () -> ()
      | exception Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> ()
      | exception Sys_error msg -> usage_error "--json DIR: %s" msg)
    o.json_dir;
  o

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

let artifact_schema = "pkru-safe.bench-artifact/1"

(* Writes each artifact once, in the order the sections returned them
   (a file two sections share is written by the first), then host.json
   — the per-section walls followed by the sections' host blocks in name
   order — and last manifest.json, listing every other file. *)
let write_json dir ran =
  let commit = commit_hash () in
  let artifacts = List.concat_map (fun (_, _, artifacts) -> artifacts) ran in
  let host, files = List.partition (fun (file, _) -> file = "host.json") artifacts in
  let files =
    List.rev
      (List.fold_left
         (fun acc (file, json) -> if List.mem_assoc file acc then acc else (file, json) :: acc)
         [] files)
  in
  let host_blocks =
    List.concat_map (function _, Util.Json.Obj blocks -> blocks | _ -> []) host
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let walls = List.map (fun (name, wall, _) -> (name, Util.Json.Float wall)) ran in
  let host = Util.Json.Obj (("section_wall_seconds", Util.Json.Obj walls) :: host_blocks) in
  let files = files @ [ ("host.json", host) ] in
  (* Object-rooted artifacts carry the schema + commit stamp inline;
     list-rooted ones (micro.json, fig3.json, security.json) keep their
     shape — the CLI `compare` subcommand pattern-matches on it — and are
     covered by manifest.json instead. *)
  let write (file, json) =
    let json =
      match json with
      | Util.Json.Obj fields ->
        Util.Json.Obj
          (("schema", Util.Json.String artifact_schema)
          :: ("commit", Util.Json.String commit)
          :: fields)
      | other -> other
    in
    Out_channel.with_open_text (Filename.concat dir file) (fun oc ->
        output_string oc (Util.Json.to_string_pretty json))
  in
  List.iter write files;
  write
    ( "manifest.json",
      Util.Json.Obj
        [ ("files", Util.Json.List (List.map (fun (file, _) -> Util.Json.String file) files)) ] );
  Printf.printf "JSON results written to %s/\n" dir

let () =
  let o = parse_args (List.tl (Array.to_list Sys.argv)) in
  let runs = function
    | "bechamel" when o.skip_bechamel -> false
    | name -> o.only = [] || List.mem name o.only
  in
  print_endline "PKRU-Safe reproduction: benchmark harness";
  print_endline "Cycle counts are simulated machine cycles; see DESIGN.md section 5.";
  let ran =
    List.filter_map
      (fun (name, run) ->
        if not (runs name) then None
        else begin
          let start = Unix.gettimeofday () in
          match run () with
          | artifacts -> Some (name, Unix.gettimeofday () -. start, artifacts)
          | exception Failure msg ->
            flush stdout;
            prerr_endline (Printf.sprintf "bench: %s section failed: %s" name msg);
            exit 1
        end)
      sections
  in
  Option.iter (fun dir -> write_json dir ran) o.json_dir;
  print_endline "\ndone."
