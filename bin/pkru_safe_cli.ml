(* The command-line front end.

   Subcommands mirror the artifact's experiments:
     pipeline  — E1: deny / profile / enforce on the minimal example
     browse    — E2: run a page + script through a chosen configuration
     exploit   — E3: the CVE-style attack on base and mpk builds
     micro     — the §5.2 micro-benchmarks and the Figure-3 sweep
     suite     — run one benchmark suite and print its table
     trace     — run one benchmark with telemetry and export the trace
     report    — attribution report: site heat, flow matrix, sampled
                 flamegraph stacks, Prometheus exposition
     audit     — run one benchmark with the heap census on, then scan the
                 final heap for MT objects reachable from U
     doctor    — render a flight-recorder dump as an incident report *)

open Cmdliner

let mode_conv =
  let parse = function
    | "base" -> Ok Pkru_safe.Config.Base
    | "alloc" -> Ok Pkru_safe.Config.Alloc
    | "profiling" -> Ok Pkru_safe.Config.Profiling
    | "mpk" -> Ok Pkru_safe.Config.Mpk
    | s -> Error (`Msg (Printf.sprintf "unknown mode %S (base|alloc|profiling|mpk)" s))
  in
  Arg.conv (parse, fun fmt mode -> Format.pp_print_string fmt (Pkru_safe.Config.mode_to_string mode))

let mode_flag =
  Arg.(value & opt mode_conv Pkru_safe.Config.Mpk & info [ "m"; "mode" ] ~doc:"Build mode")

let bench_flag =
  Arg.(required & opt (some string) None
       & info [ "b"; "bench" ] ~docv:"BENCH" ~doc:"Benchmark name (e.g. richards, dom-attr)")

let mitigation_conv =
  let parse s =
    match Runtime.Mitigator.policy_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown policy %S (abort|emulate|promote|degrade)" s))
  in
  Arg.conv
    (parse, fun fmt p -> Format.pp_print_string fmt (Runtime.Mitigator.policy_to_string p))

let mitigation_flag =
  Arg.(value & opt (some mitigation_conv) None
       & info [ "mitigation" ] ~docv:"POLICY"
           ~doc:"Fault-recovery policy for enforcement (mpk) runs: abort (paper default), \
                 emulate, promote, or degrade")

let fail_on_error = function
  | Ok v -> v
  | Error msg -> failwith msg

(* One -f converter for every subcommand: [formats] maps each accepted
   name to its value, in the order the error message lists them; the
   first is the default. *)
let format_flag ~doc formats =
  let names = String.concat "|" (List.map fst formats) in
  let parse s =
    match List.assoc_opt s formats with
    | Some f -> Ok f
    | None -> Error (`Msg (Printf.sprintf "unknown format %S (%s)" s names))
  in
  let print fmt f = Format.pp_print_string fmt (fst (List.find (fun (_, g) -> g = f) formats)) in
  Arg.(value & opt (conv (parse, print)) (snd (List.hd formats))
       & info [ "f"; "format" ] ~docv:"FORMAT" ~doc)

let table_json_prom = [ ("table", `Table); ("json", `Json); ("prom", `Prom) ]

let output_flag =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file")

(* The one output path: [rendered] goes to [output] (announced on
   stdout) or to stdout; a failed write is a one-line error. *)
let emit ~what output rendered =
  match output with
  | None -> `Ok (print_string rendered)
  | Some path -> (
    match Out_channel.with_open_text path (fun oc -> output_string oc rendered) with
    | () -> `Ok (Printf.printf "%s written to %s\n" what path)
    | exception Sys_error msg -> `Error (false, Printf.sprintf "cannot write %s: %s" what msg))

(* --flight FILE: a black-box recorder for the duration of a run; any
   post-mortem dump lands in FILE, ready for `doctor`. *)
let flight_flag =
  Arg.(value & opt (some string) None
       & info [ "flight" ] ~docv:"FILE"
           ~doc:"Arm the flight recorder; post-mortem dumps (gate-verify kills, unrecovered \
                 faults, degradations) are written to FILE for `doctor`")

let with_flight flight f =
  match flight with
  | None -> f None
  | Some path ->
    let recorder = Telemetry.Flight.create ~path () in
    Fun.protect
      ~finally:(fun () ->
        if Telemetry.Flight.dump_total recorder > 0 then
          Printf.printf "flight recorder: %d dump(s), latest written to %s\n"
            (Telemetry.Flight.dump_total recorder) path)
      (fun () -> f (Some recorder))

(* Attaches [recorder] (if any) to [env]'s machine, with the environment's
   machine context, for the callback. *)
let with_env_recorder env recorder f =
  match recorder with
  | None -> f ()
  | Some r ->
    Telemetry.Flight.set_context r (Pkru_safe.Env.flight_context env);
    Telemetry.Ctx.with_recorder (Pkru_safe.Env.ctx env) r f

(* --- pipeline (E1) --- *)

let e1_source () =
  let open Ir in
  let m = Module_ir.create () in
  let u = Builder.create ~name:"untrusted_write" ~crate:"clib" ~nparams:1 () in
  Builder.store u ~src:(Instr.Imm 1337) ~addr:(Instr.Reg 0) ();
  Builder.ret u None;
  Module_ir.add_func m (Builder.finish u);
  Module_ir.mark_untrusted m "clib";
  let f = Builder.create ~name:"main" ~crate:"app" ~nparams:0 () in
  let shared = Builder.alloc f (Instr.Imm 64) in
  Builder.store f ~src:(Instr.Imm 0) ~addr:(Instr.Reg shared) ();
  ignore (Builder.call f "untrusted_write" [ Instr.Reg shared ]);
  let v = Builder.load f (Instr.Reg shared) in
  Builder.ret f (Some (Instr.Reg v));
  Module_ir.add_func m (Builder.finish f);
  m

let run_pipeline () =
  print_endline "E1: three-step pipeline on the minimal mixed-language program";
  print_endline "  (trusted main allocates a value; untrusted clib writes 1337 into it)\n";
  let source = e1_source () in
  print_endline "[1/3] enforcement build with an empty profile:";
  let deny =
    fail_on_error
      (Toolchain.Pipeline.build ~profile:(Runtime.Profile.create ()) ~mode:Pkru_safe.Config.Mpk
         source)
  in
  (match Toolchain.Interp.run deny.Toolchain.Pipeline.interp "main" [] with
  | v -> Printf.printf "  unexpected success: %d\n" v
  | exception Vmm.Fault.Unhandled fault ->
    Printf.printf "  crashed as expected: %s\n" (Vmm.Fault.to_string fault));
  print_endline "[2/3] profiling build, one profiling input:";
  let profile =
    fail_on_error
      (Toolchain.Pipeline.collect_profile source
         ~inputs:[ (fun interp -> ignore (Toolchain.Interp.run interp "main" [])) ])
  in
  Printf.printf "  profile records %d shared allocation site(s)\n" (Runtime.Profile.cardinal profile);
  print_endline "[3/3] enforcement build with the collected profile:";
  let final = fail_on_error (Toolchain.Pipeline.build ~profile ~mode:Pkru_safe.Config.Mpk source) in
  Printf.printf "  main() = %d (allocation now shared through MU; 0 -> 1337)\n"
    (Toolchain.Interp.run final.Toolchain.Pipeline.interp "main" []);
  Printf.printf "  pass stats: %d sites, %d moved, %d wrappers\n"
    final.Toolchain.Pipeline.pass_stats.Ir.Passes.alloc_sites
    final.Toolchain.Pipeline.pass_stats.Ir.Passes.sites_moved
    final.Toolchain.Pipeline.pass_stats.Ir.Passes.wrappers;
  `Ok ()

(* --- browse (E2-style) --- *)

let default_page = {|<div id="app" data="hello"><p>alpha</p><p>beta</p></div>|}

let default_script =
  {|var app = domQueryTag("div")[0];
var d = domGetAttribute(app, "data");
print("data = " + d);
print("innerHTML = " + domGetInnerHTML(app));
print("children = " + domChildCount(app));|}

let browse mode page script mitigation flight =
  let profile =
    match mode with
    | Pkru_safe.Config.Alloc | Pkru_safe.Config.Mpk ->
      (* Profile the same workload first, as the pipeline prescribes. *)
      let env =
        fail_on_error (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Profiling))
      in
      let b = Browser.create env in
      Browser.load_page b page;
      ignore (Browser.exec_script b script);
      Pkru_safe.Env.recorded_profile env
    | Pkru_safe.Config.Base | Pkru_safe.Config.Profiling -> Runtime.Profile.create ()
  in
  let env =
    fail_on_error (Pkru_safe.Env.create ~profile (Pkru_safe.Config.make ?mitigation mode))
  in
  let browser = Browser.create env in
  with_flight flight (fun recorder ->
      with_env_recorder env recorder (fun () ->
          Browser.load_page browser page;
          match Browser.exec_script browser script with
          | _ -> ()
          | exception Vmm.Fault.Unhandled fault ->
            Printf.printf "script killed: %s\n" (Vmm.Fault.to_string fault)
          | exception Sim.Signals.Process_killed msg -> Printf.printf "process killed: %s\n" msg
          | exception Runtime.Mitigator.Degraded fault ->
            Printf.printf "request degraded: %s\n" (Vmm.Fault.to_string fault)));
  List.iter print_endline (Browser.console browser);
  (match Pkru_safe.Env.mitigator env with
  | Some m when Runtime.Mitigator.incidents m > 0 ->
    Printf.printf "mitigation[%s]: %d incident(s)%s%s\n"
      (Runtime.Mitigator.policy_to_string (Runtime.Mitigator.policy m))
      (Runtime.Mitigator.incidents m)
      (String.concat ""
         (List.map
            (fun (o, n) -> Printf.sprintf " %s=%d" o n)
            (Runtime.Mitigator.outcome_counts m)))
      (match Runtime.Mitigator.promoted_sites m with
      | [] -> ""
      | sites -> "; promoted: " ^ String.concat ", " sites)
  | _ -> ());
  Printf.printf "[%s] cycles=%d transitions=%d %%MU=%.2f sites(moved/used)=%d/%d\n"
    (Pkru_safe.Config.mode_to_string mode)
    (Pkru_safe.Env.cycles env) (Pkru_safe.Env.transitions env)
    (Pkru_safe.Env.percent_untrusted_bytes env)
    (Pkru_safe.Env.sites_moved env) (Pkru_safe.Env.sites_used env)

(* A page or script that fails to parse or run, in the profiling pre-run
   or the measured run, is bad input: one line naming the error. *)
let run_browse mode page script mitigation flight =
  match browse mode page script mitigation flight with
  | () -> `Ok ()
  | exception Engine.Lexer.Lex_error msg -> `Error (false, "script lex error: " ^ msg)
  | exception Engine.Parser.Parse_error msg -> `Error (false, "script parse error: " ^ msg)
  | exception Engine.Eval.Script_error msg -> `Error (false, "script error: " ^ msg)
  | exception Browser.Html.Html_error msg -> `Error (false, "page error: " ^ msg)

(* --- exploit (E3) --- *)

let run_exploit () =
  print_endline "E3: CVE-2019-11707-style arbitrary write against the browser secret\n";
  List.iter
    (fun mode ->
      match Exploit.run mode with
      | Ok outcome -> Format.printf "%a@." Exploit.pp_outcome outcome
      | Error msg -> Printf.printf "error: %s\n" msg)
    [ Pkru_safe.Config.Base; Pkru_safe.Config.Mpk ];
  `Ok ()

(* --- micro --- *)

let run_micro () =
  List.iter
    (fun (r : Workloads.Microbench.result) ->
      Printf.printf "%-10s ungated %6.1f  gated %6.1f  overhead %.2fx\n"
        r.Workloads.Microbench.name r.Workloads.Microbench.ungated_cycles_per_call
        r.Workloads.Microbench.gated_cycles_per_call r.Workloads.Microbench.overhead_x)
    (Workloads.Microbench.run ());
  print_endline "\nFigure 3 sweep:";
  List.iter
    (fun (loops, overhead) -> Printf.printf "  loops=%3d  normalized=%.2f\n" loops overhead)
    (Workloads.Microbench.sweep ~loop_counts:[ 0; 25; 50; 100; 200 ] ());
  `Ok ()

(* --- suite --- *)

(* Per-bench telemetry digest for `suite --telemetry`: counts from each
   mpk run's trace, then exact gate round-trip percentiles pooled across
   the suite. *)
let print_suite_telemetry (result : Workloads.Runner.suite_result) =
  let traced =
    List.filter_map
      (fun (r : Workloads.Runner.bench_result) ->
        Option.map
          (fun sink -> (r.Workloads.Runner.bench, sink))
          r.Workloads.Runner.mpk.Workloads.Runner.trace)
      result.Workloads.Runner.bench_results
  in
  if traced <> [] then begin
    print_endline "\nTelemetry (mpk configuration, per benchmark):";
    Util.Table.print
      ~header:[ "benchmark"; "events"; "gate"; "wrpkru"; "alloc"; "free"; "faults" ]
      (List.map
         (fun (name, sink) ->
           [
             name;
             string_of_int (Telemetry.Sink.events_total sink);
             string_of_int (Telemetry.Sink.gate_transitions sink);
             string_of_int (Telemetry.Sink.count sink "wrpkru");
             string_of_int (Telemetry.Sink.count sink "alloc");
             string_of_int (Telemetry.Sink.count sink "free");
             string_of_int
               (Telemetry.Sink.count sink "mpk_fault" + Telemetry.Sink.count sink "page_fault");
           ])
         traced);
    match List.concat_map (fun (_, sink) -> Telemetry.Export.gate_latencies sink) traced with
    | [] -> ()
    | latencies ->
      Printf.printf "gate round-trip (%d pairs): p50 %.0f  p90 %.0f  p99 %.0f cycles\n"
        (List.length latencies)
        (Util.Stats.percentile 50.0 latencies)
        (Util.Stats.percentile 90.0 latencies)
        (Util.Stats.percentile 99.0 latencies)
  end

let run_suite name telemetry =
  match Workloads.Registry.suite_of_name name with
  | Error msg -> `Error (false, msg)
  | Ok suite ->
    let tty = Unix.isatty Unix.stdout in
    let result =
      Workloads.Runner.run_suite
        ~progress:(fun bench -> if tty then Printf.printf "  %-36s\r%!" bench)
        ~telemetry suite
    in
    if tty then Printf.printf "%-48s\r%!" "";
    Util.Table.print
      ~header:[ "benchmark"; "alloc %"; "mpk %"; "transitions"; "%MU" ]
      (List.map
         (fun (r : Workloads.Runner.bench_result) ->
           [
             r.Workloads.Runner.bench;
             Printf.sprintf "%+.2f" r.Workloads.Runner.alloc_overhead_pct;
             Printf.sprintf "%+.2f" r.Workloads.Runner.mpk_overhead_pct;
             string_of_int r.Workloads.Runner.mpk.Workloads.Runner.transitions;
             Printf.sprintf "%.2f" r.Workloads.Runner.mpk.Workloads.Runner.pct_mu;
           ])
         result.Workloads.Runner.bench_results);
    Printf.printf "\nmean: alloc %+.2f%%  mpk %+.2f%%  transitions %d  %%MU %.2f\n"
      result.Workloads.Runner.mean_alloc_pct result.Workloads.Runner.mean_mpk_pct
      result.Workloads.Runner.total_transitions result.Workloads.Runner.mean_pct_mu;
    if telemetry then print_suite_telemetry result;
    `Ok ()

(* --- trace: one benchmark under telemetry, exported as a trace file --- *)

(* Replays the methodology for a single benchmark: enforcement modes get a
   profile collected from the same workload first. *)
let profile_for ~mode (bench : Workloads.Bench_def.bench) =
  match mode with
  | Pkru_safe.Config.Alloc | Pkru_safe.Config.Mpk ->
    let suite =
      { Workloads.Bench_def.suite_name = bench.Workloads.Bench_def.name; benches = [ bench ] }
    in
    Workloads.Runner.profile_suite suite
  | Pkru_safe.Config.Base | Pkru_safe.Config.Profiling -> Runtime.Profile.create ()

let run_trace bench_name mode format output flight =
  match Workloads.Registry.bench_of_name bench_name with
  | Error msg -> `Error (false, msg)
  | Ok bench ->
    let profile = profile_for ~mode bench in
    let m =
      with_flight flight (fun recorder ->
          Workloads.Runner.run_config ~telemetry:true ?recorder ~mode ~profile bench)
    in
    let sink =
      match m.Workloads.Runner.trace with
      | Some sink -> sink
      | None -> assert false
    in
    let rendered =
      match format with
      | `Chrome -> Util.Json.to_string_pretty (Telemetry.Export.chrome_trace sink) ^ "\n"
      | `Json -> Util.Json.to_string_pretty (Telemetry.Export.to_json sink) ^ "\n"
      | `Summary -> Telemetry.Export.summary sink
    in
    match emit ~what:"trace" output rendered with
    | `Error _ as e -> e
    | `Ok () ->
      Printf.printf
        "[%s] %s: cycles=%d events=%d (%d dropped from trace)  gate events=%d  transitions=%d\n"
        (Pkru_safe.Config.mode_to_string mode)
        bench_name m.Workloads.Runner.cycles
        (Telemetry.Sink.events_total sink)
        (Telemetry.Sink.dropped sink)
        (Telemetry.Sink.gate_transitions sink)
        m.Workloads.Runner.transitions;
      `Ok ()

(* --- report: attribution + sampled-flamegraph analysis of one benchmark --- *)

let run_report bench_name mode sample_every format output mitigation flight =
  if sample_every <= 0 then `Error (false, "--sample-every must be positive")
  else
    match Workloads.Registry.bench_of_name bench_name with
    | Error msg -> `Error (false, msg)
    | Ok bench ->
      let profile = profile_for ~mode bench in
      let m =
        with_flight flight (fun recorder ->
            Workloads.Runner.run_config ~telemetry:true ~sample_every ?mitigation ?recorder ~mode
              ~profile bench)
      in
      let sink = Option.get m.Workloads.Runner.trace in
      let sampler = Option.get m.Workloads.Runner.samples in
      let attribution =
        Telemetry.Attribution.of_sink ~total_cycles:m.Workloads.Runner.cycles sink
      in
      let quarantined = m.Workloads.Runner.quarantined_sites in
      let rendered =
        match format with
        | `Table ->
          let buf = Buffer.create 4096 in
          Buffer.add_string buf (Telemetry.Attribution.report attribution);
          Buffer.add_string buf
            (Printf.sprintf "\nSampling profile (1 sample / %d cycles, %d samples):\n"
               (Telemetry.Sampler.every sampler)
               (Telemetry.Sampler.samples_total sampler));
          List.iter
            (fun (leaf, share) ->
              Buffer.add_string buf (Printf.sprintf "  %-12s %5.1f%%\n" leaf (100.0 *. share)))
            (Telemetry.Sampler.leaf_shares sampler);
          Buffer.add_string buf
            (match quarantined with
            | [] -> "\nQuarantined sites: none\n"
            | sites ->
              Printf.sprintf "\nQuarantined sites (future MT allocations routed to MU): %s\n"
                (String.concat ", " sites));
          Buffer.contents buf
        | `Json ->
          Util.Json.to_string_pretty
            (Util.Json.Obj
               [
                 ("bench", Util.Json.String bench_name);
                 ("mode", Util.Json.String (Pkru_safe.Config.mode_to_string mode));
                 ("cycles", Util.Json.Int m.Workloads.Runner.cycles);
                 ("attribution", Telemetry.Attribution.to_json attribution);
                 ("profile", Telemetry.Sampler.to_json sampler);
                 ( "quarantined_sites",
                   Util.Json.List (List.map (fun s -> Util.Json.String s) quarantined) );
               ])
          ^ "\n"
        | `Prom -> Telemetry.Export.prometheus ~attribution ~sampler sink
        | `Folded -> Telemetry.Sampler.to_folded sampler
      in
      emit ~what:"report" output rendered

(* --- run: execute a textual IR program through the toolchain --- *)

let run_ir source mode use_static entry telemetry =
  let build =
    if use_static then begin
      let b, result = fail_on_error (Toolchain.Pipeline.build_static ~mode source) in
      Printf.printf "static analysis: %d shared site(s), %d fixpoint round(s)\n"
        (Runtime.Alloc_id.Set.cardinal result.Ir.Static_taint.shared)
        result.Ir.Static_taint.iterations;
      b
    end
    else begin
      let profile =
        match mode with
        | Pkru_safe.Config.Alloc | Pkru_safe.Config.Mpk ->
          let p =
            fail_on_error
              (Toolchain.Pipeline.collect_profile source
                 ~inputs:[ (fun i -> ignore (Toolchain.Interp.run i entry [])) ])
          in
          Printf.printf "dynamic profile: %d shared site(s)\n" (Runtime.Profile.cardinal p);
          p
        | Pkru_safe.Config.Base | Pkru_safe.Config.Profiling -> Runtime.Profile.create ()
      in
      fail_on_error (Toolchain.Pipeline.build ~profile ~mode source)
    end
  in
  let sink = if telemetry then Some (Telemetry.Sink.create ()) else None in
  let execute () =
    match sink with
    | Some s ->
      Telemetry.Ctx.with_sink (Pkru_safe.Env.ctx build.Toolchain.Pipeline.env) s (fun () ->
          Toolchain.Interp.run build.Toolchain.Pipeline.interp entry [])
    | None -> Toolchain.Interp.run build.Toolchain.Pipeline.interp entry []
  in
  (match execute () with
  | result ->
    Printf.printf "%s() = %d\n" entry result;
    Printf.printf "[%s] cycles=%d transitions=%d sites=%d moved=%d wrappers=%d\n"
      (Pkru_safe.Config.mode_to_string mode)
      (Pkru_safe.Env.cycles build.Toolchain.Pipeline.env)
      (Pkru_safe.Env.transitions build.Toolchain.Pipeline.env)
      build.Toolchain.Pipeline.pass_stats.Ir.Passes.alloc_sites
      build.Toolchain.Pipeline.pass_stats.Ir.Passes.sites_moved
      build.Toolchain.Pipeline.pass_stats.Ir.Passes.wrappers
  | exception Vmm.Fault.Unhandled fault ->
    Printf.printf "program killed: %s\n" (Vmm.Fault.to_string fault));
  (match sink with
  | Some s ->
    print_newline ();
    print_string (Telemetry.Export.summary s)
  | None -> ())

(* A trap (a missing entry function, division by zero, an unknown
   callee), in the profiling pre-run or the measured run, is bad input:
   one line naming the file and the trap. *)
let run_ir_file path mode use_static entry telemetry =
  let text = In_channel.with_open_text path In_channel.input_all in
  match Ir.Ir_text.of_string text with
  | exception Ir.Ir_text.Syntax_error msg -> `Error (false, path ^ ": " ^ msg)
  | source -> (
    match run_ir source mode use_static entry telemetry with
    | () -> `Ok ()
    | exception Toolchain.Interp.Trap msg -> `Error (false, Printf.sprintf "%s: trap: %s" path msg))

(* --- corpus: collect, inspect and persist the profiling corpus --- *)

let run_corpus save_dir =
  let corpus = Workloads.Browsing.collect () in
  Printf.printf "collected %d profiling runs:\n" (Runtime.Corpus.run_count corpus);
  List.iter
    (fun (name, gained) -> Printf.printf "  %-16s %+d new site(s)\n" name gained)
    (Runtime.Corpus.marginal_gains corpus);
  let merged = Runtime.Corpus.merged corpus in
  Printf.printf "deployment profile: %d shared sites\n" (Runtime.Profile.cardinal merged);
  let fragile = Runtime.Corpus.fragile_sites corpus ~max_runs:1 in
  Printf.printf "fragile sites (seen by a single run): %d\n" (List.length fragile);
  match save_dir with
  | None -> `Ok ()
  | Some dir -> (
    match Runtime.Corpus.save_dir corpus dir with
    | () -> `Ok (Printf.printf "corpus written to %s/\n" dir)
    | exception Sys_error msg -> `Error (false, "cannot save corpus: " ^ msg))

(* --- compare: diff two --json result directories --- *)

let load_json path = Util.Json.of_string (In_channel.with_open_text path In_channel.input_all)

let run_compare dir_a dir_b =
  let files =
    Sys.readdir dir_a |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json" && Sys.file_exists (Filename.concat dir_b f))
    |> List.sort compare
  in
  (* Every pair is parsed before anything prints, so a malformed file
     is one error line naming it. *)
  let load dir file =
    let path = Filename.concat dir file in
    match load_json path with
    | json -> json
    | exception Util.Json.Parse_error msg ->
      failwith (Printf.sprintf "%s: not valid JSON (%s)" path msg)
    | exception Sys_error msg -> failwith msg
  in
  if files = [] then `Error (false, "no common .json result files")
  else
    match List.map (fun file -> (file, load dir_a file, load dir_b file)) files with
    | exception Failure msg -> `Error (false, msg)
    | loaded ->
      List.iter
        (fun (file, a, b) ->
          match (a, b) with
          | Util.Json.Obj _, Util.Json.Obj _ ->
            (* Suite result files: compare the suite means. *)
            (try
               let mean j key = Util.Json.to_float (Util.Json.member key j) in
               Printf.printf "%-28s alloc %+6.2f%% -> %+6.2f%%   mpk %+6.2f%% -> %+6.2f%%\n"
                 file (mean a "mean_alloc_pct") (mean b "mean_alloc_pct")
                 (mean a "mean_mpk_pct") (mean b "mean_mpk_pct")
             with Not_found | Invalid_argument _ ->
               Printf.printf "%-28s (not a suite file; skipped)\n" file)
          | Util.Json.List a_rows, Util.Json.List b_rows
            when file = "micro.json" && List.length a_rows = List.length b_rows ->
            List.iter2
              (fun a b ->
                try
                  let name = Util.Json.to_str (Util.Json.member "name" a) in
                  let ov j = Util.Json.to_float (Util.Json.member "overhead_x" j) in
                  Printf.printf "%-28s %-10s %.2fx -> %.2fx\n" file name (ov a) (ov b)
                with Not_found | Invalid_argument _ -> ())
              a_rows b_rows
          | _ -> Printf.printf "%-28s (unrecognised shape; skipped)\n" file)
        loaded;
      `Ok ()

(* --- chaos: deterministic fault injection over the enforcement pipeline --- *)

let scenario_conv =
  let parse = function
    | "all" -> Ok None
    | s -> (
      match Chaos.scenario_of_string s with
      | Some sc -> Ok (Some sc)
      | None ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown scenario %S (coverage-gap|pkalloc-oom|gate-corruption|handler-tamper|all)"
               s)))
  in
  Arg.conv
    ( parse,
      fun fmt -> function
        | None -> Format.pp_print_string fmt "all"
        | Some sc -> Format.pp_print_string fmt (Chaos.scenario_to_string sc) )

let chaos_policy_conv =
  let parse = function
    | "all" -> Ok None
    | s -> (
      match Runtime.Mitigator.policy_of_string s with
      | Some p -> Ok (Some p)
      | None ->
        Error (`Msg (Printf.sprintf "unknown policy %S (abort|emulate|promote|degrade|all)" s)))
  in
  Arg.conv
    ( parse,
      fun fmt -> function
        | None -> Format.pp_print_string fmt "all"
        | Some p -> Format.pp_print_string fmt (Runtime.Mitigator.policy_to_string p) )

let attack_conv =
  let parse = function
    | "all" -> Ok None
    | s -> (
      match Exploit.Garmr.attack_of_string s with
      | Some a -> Ok (Some a)
      | None ->
        Error
          (`Msg
            (Printf.sprintf
               "unknown attack %S (wrpkru-race|sigreturn-forge|syscall-confusion|all)" s)))
  in
  Arg.conv
    ( parse,
      fun fmt -> function
        | None -> Format.pp_print_string fmt "all"
        | Some a -> Format.pp_print_string fmt (Exploit.Garmr.attack_to_string a) )

(* chaos --flight FILE: every run records into its own recorder; pool the
   dumps so a CI artifact (or `doctor`) sees every death of the run. *)
let write_pooled_dumps flight dumps =
  match flight with
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        output_string oc (Util.Json.to_string_pretty (Util.Json.List dumps) ^ "\n"));
    Printf.printf "%d flight dump(s) written to %s\n" (List.length dumps) path
  | None -> ()

(* The Garmr battery (`chaos --attacks`): every attack twice — defense
   off (must leak) and on (must be defeated) — non-zero exit on any
   invariant violation, flight dumps pooled for the CI artifact. *)
let run_chaos_attacks attack harts seed format output flight =
  if harts < 2 then `Error (false, "--attack-harts must be at least 2")
  else
    match format with
    | `Prom -> `Error (false, "--attacks supports only table or json output")
    | (`Table | `Json) as format -> (
      let attacks =
        match attack with Some a -> [ a ] | None -> Exploit.Garmr.all_attacks
      in
      let reports = Chaos.run_attacks ~harts ~attacks ~seed () in
      let rendered =
        match format with
        | `Table ->
          let buf = Buffer.create 4096 in
          List.iter
            (fun r -> Buffer.add_string buf (Format.asprintf "%a@." Chaos.pp_attack_report r))
            reports;
          Buffer.contents buf
        | `Json ->
          Util.Json.to_string_pretty
            (Util.Json.List (List.map Chaos.attack_report_to_json reports))
          ^ "\n"
      in
      match emit ~what:"attack battery report" output rendered with
      | `Error _ as e -> e
      | `Ok () ->
        write_pooled_dumps flight
          (List.concat_map (fun (r : Chaos.attack_report) -> r.Chaos.ar_flight_dumps) reports);
        let broken = List.filter (fun r -> r.Chaos.ar_invariant_failures <> []) reports in
        if broken = [] then `Ok ()
        else
          `Error
            ( false,
              Printf.sprintf "%d of %d attack(s) violated battery invariants"
                (List.length broken) (List.length reports) ))

let run_chaos scenario policy seed drop oom_at format output flight attacks attack harts =
  if attacks || attack <> None then run_chaos_attacks attack harts seed format output flight
  else if drop <= 0.0 || drop >= 1.0 then `Error (false, "--drop must be in (0, 1)")
  else if oom_at <= 0 then `Error (false, "--oom-at must be positive")
  else begin
    let scenarios = match scenario with Some sc -> [ sc ] | None -> Chaos.all_scenarios in
    let policies =
      match policy with Some p -> [ p ] | None -> Runtime.Mitigator.all_policies
    in
    let reports =
      List.concat_map
        (fun sc ->
          List.map
            (fun p -> Chaos.run ~drop ~oom_at ~scenario:sc ~policy:p ~seed ())
            policies)
        scenarios
    in
    let rendered =
      match format with
      | `Table ->
        let buf = Buffer.create 4096 in
        List.iter
          (fun r ->
            Buffer.add_string buf (Format.asprintf "%a@." Chaos.pp_report r);
            List.iter (fun d -> Buffer.add_string buf ("    " ^ d ^ "\n")) r.Chaos.details)
          reports;
        Buffer.contents buf
      | `Json ->
        Util.Json.to_string_pretty (Util.Json.List (List.map Chaos.report_to_json reports))
        ^ "\n"
      | `Prom -> String.concat "\n" (List.map (fun r -> r.Chaos.prometheus) reports)
    in
    match emit ~what:"chaos report" output rendered with
    | `Error _ as e -> e
    | `Ok () ->
      write_pooled_dumps flight
        (List.concat_map (fun (r : Chaos.report) -> r.Chaos.flight_dumps) reports);
      let broken = List.filter (fun r -> r.Chaos.invariant_failures <> []) reports in
      if broken = [] then `Ok ()
      else
        `Error
          ( false,
            Printf.sprintf "%d of %d chaos run(s) violated invariants" (List.length broken)
              (List.length reports) )
  end

(* --- audit: post-run provenance scan of one benchmark's heap --- *)

let run_audit bench_name mode census_every promote format output mitigation flight =
  if census_every <= 0 then `Error (false, "--census-every must be positive")
  else
    match Workloads.Registry.bench_of_name bench_name with
    | Error msg -> `Error (false, msg)
    | Ok bench ->
      let profile = profile_for ~mode bench in
      (* Hand-rolled run (not Runner.run_config): the auditor scans the
         env's pages after the workload, so the env must stay in hand —
         and a promotion re-run needs the quarantine table carried onto a
         fresh image. *)
      let run_once ~flight ~quarantine =
        let env =
          fail_on_error (Pkru_safe.Env.create ~profile (Pkru_safe.Config.make ?mitigation mode))
        in
        let pkalloc = Pkru_safe.Env.pkalloc env in
        List.iter (Allocators.Pkalloc.quarantine_site pkalloc) quarantine;
        Pkru_safe.Env.track_census env;
        let browser = Browser.create ~engine_seed:bench.Workloads.Bench_def.engine_seed env in
        let census = Telemetry.Census.create ~every:census_every () in
        let sink = Telemetry.Sink.create () in
        let ctx = Pkru_safe.Env.ctx env in
        with_flight flight (fun recorder ->
            with_env_recorder env recorder (fun () ->
                Telemetry.Ctx.with_sink ctx sink (fun () ->
                    Telemetry.Ctx.with_census ctx ~provider:(Pkru_safe.Env.census_snapshot env)
                      census (fun () ->
                        Browser.load_page browser bench.Workloads.Bench_def.page;
                        ignore (Browser.exec_script browser bench.Workloads.Bench_def.script)))));
        let metadata = Option.get (Pkru_safe.Env.census_metadata env) in
        (env, sink, census, Audit.scan ~metadata pkalloc)
      in
      let env, sink, census, report = run_once ~flight ~quarantine:[] in
      let attribution =
        Telemetry.Attribution.of_sink ~total_cycles:(Pkru_safe.Env.cycles env) sink
      in
      let promoted, rerun =
        if promote && not (Audit.leak_free report) then begin
          let pkalloc = Pkru_safe.Env.pkalloc env in
          let promoted = Audit.promote pkalloc report in
          (* Convergence check: a fresh image with the evidence-derived
             quarantine carried over must come back leak-free — promoted
             sites now allocate from MU. *)
          let _, _, _, report2 =
            run_once ~flight:None ~quarantine:(Allocators.Pkalloc.quarantined_sites pkalloc)
          in
          (promoted, Some report2)
        end
        else ([], None)
      in
      let rendered =
        match format with
        | `Table ->
          let buf = Buffer.create 4096 in
          Buffer.add_string buf (Audit.render ~attribution report);
          (match Telemetry.Census.latest census with
          | Some snap ->
            Buffer.add_string buf
              (Printf.sprintf "census: %d snapshot(s), 1 every %d cycles; last at cycle %d\n"
                 (Telemetry.Census.taken_total census)
                 (Telemetry.Census.every census) snap.Telemetry.Census.at_cycle)
          | None -> ());
          if promoted <> [] then
            Buffer.add_string buf
              (Printf.sprintf "promoted to MU for the next run: %s\n"
                 (String.concat ", " promoted));
          (match rerun with
          | Some r ->
            Buffer.add_string buf
              (if Audit.leak_free r then "re-run after promotion: leak-free\n"
               else
                 Printf.sprintf "re-run after promotion: STILL LEAKING (%d finding(s))\n"
                   (List.length r.Audit.findings))
          | None -> ());
          Buffer.contents buf
        | `Json ->
          Util.Json.to_string_pretty
            (Util.Json.Obj
               [
                 ("bench", Util.Json.String bench_name);
                 ("mode", Util.Json.String (Pkru_safe.Config.mode_to_string mode));
                 ("cycles", Util.Json.Int (Pkru_safe.Env.cycles env));
                 ("audit", Audit.to_json report);
                 ("census", Telemetry.Census.digest_json census);
                 ( "promoted_sites",
                   Util.Json.List (List.map (fun s -> Util.Json.String s) promoted) );
                 ( "rerun_leak_free",
                   match rerun with
                   | Some r -> Util.Json.Bool (Audit.leak_free r)
                   | None -> Util.Json.Null );
               ])
          ^ "\n"
        | `Prom ->
          Audit.prometheus report ^ Telemetry.Export.prometheus ~attribution ~census sink
      in
      match emit ~what:"audit" output rendered with
      | `Error _ as e -> e
      | `Ok () -> (
        if Audit.leak_free report then `Ok ()
        else
          match rerun with
          | Some r when Audit.leak_free r ->
            (* Evidence consumed: the leak is quarantined and the converged
               image is clean, so the exit code reports success. *)
            `Ok ()
          | _ ->
            `Error
              ( false,
                Printf.sprintf "audit: %d MT object(s) reachable from U across %d site(s)"
                  (List.length report.Audit.findings)
                  (List.length report.Audit.sites) ))

(* --- fleet: N concurrent sessions over per-CPU run queues --- *)

let fleet_table (r : Fleet.result) =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "fleet: %d session(s) over %d CPU(s), timeslice %d ticks\n" r.Fleet.r_sessions
    r.Fleet.r_cpus r.Fleet.r_timeslice;
  add "  makespan        %d cycles\n" r.Fleet.r_makespan_cycles;
  add "  throughput      %.1f sessions/sec\n" r.Fleet.r_sessions_per_sec;
  add "  latency         p50 %.0f ns, p99 %.0f ns\n" r.Fleet.r_p50_latency_ns
    r.Fleet.r_p99_latency_ns;
  add "  work            %d cycles across sessions, %d yield(s), %d steal(s)\n"
    r.Fleet.r_total_cycles r.Fleet.r_yields r.Fleet.r_steals;
  add "  outcomes        %d completed, %d oom, %d failed\n" r.Fleet.r_completed r.Fleet.r_oom
    r.Fleet.r_failed;
  (match r.Fleet.r_backing with
  | None -> ()
  | Some b ->
    add "  page budget     %d pages, low-water %d, %d denial(s)\n" b.Fleet.bk_total_pages
      b.Fleet.bk_min_available b.Fleet.bk_denials);
  Buffer.contents buf

let run_fleet bench_name sessions cpus timeslice max_live page_budget mode format output
    per_session =
  if sessions <= 0 then `Error (false, "--sessions must be positive")
  else if cpus <= 0 then `Error (false, "--cpus must be positive")
  else if timeslice <= 0 then `Error (false, "--timeslice must be positive")
  else if max_live <= 0 then `Error (false, "--max-live must be positive")
  else if (match page_budget with Some b -> b <= 0 | None -> false) then
    `Error (false, "--page-budget must be positive")
  else
    match Workloads.Registry.bench_of_name bench_name with
    | Error msg -> `Error (false, msg)
    | Ok bench ->
      (* Enforcement modes need a profile; collect it from the same
         workload first, exactly as `browse` does. *)
      let profile = profile_for ~mode bench in
      let r =
        Fleet.run ~mode ~profile ~cpus ~timeslice ~max_live ?page_budget ~sessions
          [ Fleet.job_of_bench bench ]
      in
      let rendered =
        match format with
        | `Table -> fleet_table r
        | `Json -> Util.Json.to_string_pretty (Fleet.to_json ~per_session r) ^ "\n"
        | `Prom -> Telemetry.Metrics.expose (Fleet.metrics r)
      in
      match emit ~what:"fleet report" output rendered with
      | `Error _ as e -> e
      | `Ok () ->
        if r.Fleet.r_failed > 0 then
          `Error
            (false, Printf.sprintf "fleet: %d of %d session(s) failed" r.Fleet.r_failed sessions)
        else `Ok ()

(* --- doctor: render a flight-recorder dump as an incident report --- *)

let run_doctor path =
  match load_json path with
  | exception Sys_error msg -> `Error (false, msg)
  | exception Util.Json.Parse_error msg ->
    `Error (false, Printf.sprintf "%s: not valid JSON (%s)" path msg)
  | Util.Json.List [] -> `Error (false, path ^ ": empty dump list — nothing died in that run")
  | Util.Json.List dumps ->
    (* A pooled file (chaos --flight): render every dump in order. *)
    List.iteri
      (fun i dump ->
        if i > 0 then print_endline (String.make 72 '=');
        print_string (Telemetry.Flight.render dump))
      dumps;
    `Ok ()
  | dump -> (
    match Telemetry.Flight.render dump with
    | report ->
      print_string report;
      `Ok ()
    | exception (Not_found | Invalid_argument _) ->
      `Error (false, path ^ ": not a flight-recorder dump"))

(* --- cmdliner wiring --- *)

let pipeline_cmd =
  Cmd.v (Cmd.info "pipeline" ~doc:"Run the E1 deny/profile/enforce demonstration")
    Term.(ret (const run_pipeline $ const ()))

let browse_cmd =
  let page =
    Arg.(value & opt string default_page & info [ "p"; "page" ] ~doc:"HTML page to load")
  in
  let script =
    Arg.(value & opt string default_script & info [ "s"; "script" ] ~doc:"Script to execute")
  in
  Cmd.v (Cmd.info "browse" ~doc:"Run a page + script under a configuration (E2-style)")
    Term.(
      ret
        (const run_browse $ mode_flag $ page $ script $ mitigation_flag $ flight_flag))

let exploit_cmd =
  Cmd.v (Cmd.info "exploit" ~doc:"Run the E3 security experiment")
    Term.(ret (const run_exploit $ const ()))

let micro_cmd =
  Cmd.v (Cmd.info "micro" ~doc:"Run the call-gate micro-benchmarks")
    Term.(ret (const run_micro $ const ()))

let telemetry_flag =
  Arg.(value & flag
       & info [ "telemetry" ] ~doc:"Record telemetry during the run and print a digest")

let suite_cmd =
  let suite_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"SUITE"
             ~doc:"dromaeo|dom|v8|sunspider|jslib|kraken|octane|jetstream2")
  in
  Cmd.v (Cmd.info "suite" ~doc:"Run one benchmark suite")
    Term.(ret (const run_suite $ suite_arg $ telemetry_flag))

let trace_cmd =
  let format =
    format_flag
      ~doc:"chrome (trace_event for chrome://tracing / Perfetto), json, or summary"
      [ ("chrome", `Chrome); ("json", `Json); ("summary", `Summary) ]
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run one benchmark with telemetry enabled and export the trace")
    Term.(ret (const run_trace $ bench_flag $ mode_flag $ format $ output_flag $ flight_flag))

let report_cmd =
  let sample_every =
    Arg.(value & opt int 64
         & info [ "sample-every" ] ~docv:"CYCLES" ~doc:"Cycles between profile samples")
  in
  let format =
    format_flag
      ~doc:"table (flow matrix + site heat), json, prom (Prometheus text exposition), or \
            folded (collapsed stacks for flamegraph.pl / speedscope)"
      (table_json_prom @ [ ("folded", `Folded) ])
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Run one benchmark with telemetry + cycle sampling and print the attribution report")
    Term.(
      ret
        (const run_report $ bench_flag $ mode_flag $ sample_every $ format $ output_flag
        $ mitigation_flag $ flight_flag))

let compare_cmd =
  let dir n doc = Arg.(required & pos n (some dir) None & info [] ~docv:"DIR" ~doc) in
  Cmd.v (Cmd.info "compare" ~doc:"Compare two bench --json result directories")
    Term.(ret (const run_compare $ dir 0 "baseline results" $ dir 1 "new results"))

let corpus_cmd =
  let save_dir =
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"DIR" ~doc:"Persist the corpus")
  in
  Cmd.v
    (Cmd.info "corpus" ~doc:"Collect the browsing profiling corpus and report its coverage")
    Term.(ret (const run_corpus $ save_dir))

let run_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Textual IR program")
  in
  let use_static =
    Arg.(value & flag & info [ "static" ] ~doc:"Partition with the static analysis instead of profiling")
  in
  let entry = Arg.(value & opt string "main" & info [ "entry" ] ~doc:"Entry function") in
  Cmd.v (Cmd.info "run" ~doc:"Compile and run a .ir program through the pipeline")
    Term.(ret (const run_ir_file $ path $ mode_flag $ use_static $ entry $ telemetry_flag))

let chaos_cmd =
  let scenario =
    Arg.(value & opt scenario_conv None
         & info [ "scenario" ] ~docv:"SCENARIO"
             ~doc:"coverage-gap, pkalloc-oom, gate-corruption, handler-tamper, or all")
  in
  let policy =
    Arg.(value & opt chaos_policy_conv None
         & info [ "policy" ] ~docv:"POLICY" ~doc:"abort, emulate, promote, degrade, or all")
  in
  let seed = Arg.(value & opt int 1337 & info [ "seed" ] ~docv:"SEED" ~doc:"Injection seed") in
  let drop =
    Arg.(value & opt float 0.10
         & info [ "drop" ] ~docv:"FRACTION" ~doc:"Profile fraction dropped (coverage gaps)")
  in
  let oom_at =
    Arg.(value & opt int 40
         & info [ "oom-at" ] ~docv:"N" ~doc:"Poison the Nth pool allocation (pkalloc-oom)")
  in
  let format = format_flag ~doc:"table, json, or prom" table_json_prom in
  let attacks =
    Arg.(value & flag
         & info [ "attacks" ]
             ~doc:"Run the Garmr attack battery instead of the fault scenarios: each attack \
                   class defended and undefended, non-zero exit if any defended attack \
                   succeeds or any undefended attack is silently stopped")
  in
  let attack =
    Arg.(value & opt attack_conv None
         & info [ "attack" ] ~docv:"ATTACK"
             ~doc:"Restrict the battery to one attack class (implies --attacks): \
                   wrpkru-race, sigreturn-forge, syscall-confusion, or all")
  in
  let harts =
    Arg.(value & opt int 2
         & info [ "attack-harts" ] ~docv:"N"
             ~doc:"Harts per attack battery: N-1 benign victims plus the attacker (min 2)")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Inject deterministic faults into the enforcement pipeline and check invariants")
    Term.(
      ret
        (const run_chaos $ scenario $ policy $ seed $ drop $ oom_at $ format $ output_flag
        $ flight_flag $ attacks $ attack $ harts))

let audit_cmd =
  let census_every =
    Arg.(value & opt int 256
         & info [ "census-every" ] ~docv:"CYCLES" ~doc:"Cycles between heap-census snapshots")
  in
  let promote =
    Arg.(value & flag
         & info [ "audit-promote" ]
             ~doc:"Quarantine confirmed-leaking sites (future MT allocations routed to MU) and \
                   re-run on a fresh image to verify the heap comes back leak-free")
  in
  let format = format_flag ~doc:"table, json, or prom" table_json_prom in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Run one benchmark with the heap census on, then conservatively scan every \
             U-readable resident page for pointers into live MT objects; exits non-zero when \
             an unresolved leak is found")
    Term.(
      ret
        (const run_audit $ bench_flag $ mode_flag $ census_every $ promote $ format $ output_flag
        $ mitigation_flag $ flight_flag))

let fleet_cmd =
  let bench_arg =
    Arg.(value & opt string "dom-query"
         & info [ "b"; "bench" ] ~docv:"BENCH"
             ~doc:"Benchmark each session runs (e.g. dom-query, richards)")
  in
  let sessions =
    Arg.(value & opt int 100
         & info [ "n"; "sessions" ] ~docv:"N" ~doc:"Number of sessions to run")
  in
  let cpus =
    Arg.(value & opt int 4 & info [ "cpus" ] ~docv:"CPUS" ~doc:"Scheduler CPUs (run queues)")
  in
  let timeslice =
    Arg.(value & opt int 4000
         & info [ "timeslice" ] ~docv:"TICKS"
             ~doc:"Cooperative yield budget in evaluator ticks")
  in
  let max_live =
    Arg.(value & opt int 128
         & info [ "max-live" ] ~docv:"N"
             ~doc:"Maximum concurrently-materialised sessions (bounds host memory)")
  in
  let page_budget =
    Arg.(value & opt (some int) None
         & info [ "page-budget" ] ~docv:"PAGES"
             ~doc:"Shared backing-page budget all sessions contend for; exhaustion retires \
                   the victim session with an oom outcome")
  in
  let format = format_flag ~doc:"table, json, or prom" table_json_prom in
  let per_session =
    Arg.(value & flag
         & info [ "per-session" ] ~doc:"Include the per-session table in json output")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Run N concurrent browsing sessions over per-CPU run queues with cooperative \
             scheduling and report sessions/sec and latency percentiles")
    Term.(
      ret
        (const run_fleet $ bench_arg $ sessions $ cpus $ timeslice $ max_live $ page_budget
        $ mode_flag $ format $ output_flag $ per_session))

let doctor_cmd =
  let path =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"DUMP"
             ~doc:"A flight-recorder dump file (from --flight, chaos, or an aborted run)")
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:"Render a flight-recorder dump into a human-readable incident report: context, \
             gate-tail balance, span timeline, and the causal chain open at death")
    Term.(ret (const run_doctor $ path))

let default =
  Term.(ret (const (`Help (`Pager, None))))

let () =
  let info = Cmd.info "pkru_safe_cli" ~doc:"PKRU-Safe reproduction driver" in
  exit (Cmd.eval (Cmd.group ~default info [ pipeline_cmd; browse_cmd; exploit_cmd; micro_cmd; suite_cmd; trace_cmd; report_cmd; run_cmd; corpus_cmd; compare_cmd; chaos_cmd; audit_cmd; fleet_cmd; doctor_cmd ]))
