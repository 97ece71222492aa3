(* An allocation-heavy workload: lots of JSON churn (string buffers), run
   with the getter-heavy DOM page so shared sites see real traffic. *)
let alloc_heavy_bench =
  Bench_def.bench ~page:(Dom_scripts.page ~rows:8) "alloc-heavy"
    (Dom_scripts.dom_html ~iters:50)

(* Ablation workloads are read-only scripts, so we run them once to warm
   allocator pools and page mappings, then measure a steady-state run —
   otherwise cold-start demand paging (which differs between allocator
   layouts) drowns out the effect under study. *)
let measure ~profile config (bench : Bench_def.bench) =
  let browser = Runner.load ~profile config bench in
  ignore (Browser.exec_script browser bench.Bench_def.script);
  Runner.run_scripts browser [ bench.Bench_def.script ];
  Pkru_safe.Env.cycles (Browser.env browser)

let overhead_pct ~base ~measured =
  Util.Stats.percent_overhead ~baseline:(float_of_int base) ~measured:(float_of_int measured)

let fast_mu_allocator () =
  let bench = alloc_heavy_bench in
  let profile = Runner.profile_bench bench in
  let run mu_backend mode = measure ~profile (Pkru_safe.Config.make ~mu_backend mode) bench in
  let base = run Allocators.Pkalloc.Mu_dlmalloc Pkru_safe.Config.Base in
  let slow = run Allocators.Pkalloc.Mu_dlmalloc Pkru_safe.Config.Alloc in
  let fast = run Allocators.Pkalloc.Mu_jemalloc Pkru_safe.Config.Alloc in
  (overhead_pct ~base ~measured:slow, overhead_pct ~base ~measured:fast)

let gate_cost_sweep ~wrpkru_costs =
  let bench = Dom_scripts.gate_bound in
  let profile = Runner.profile_bench bench in
  List.map
    (fun wrpkru ->
      let cost = Sim.Cost.with_wrpkru Sim.Cost.default wrpkru in
      let run mode = measure ~profile (Pkru_safe.Config.make ~cost mode) bench in
      let base = run Pkru_safe.Config.Base in
      let mpk = run Pkru_safe.Config.Mpk in
      (wrpkru, overhead_pct ~base ~measured:mpk))
    wrpkru_costs

let profile_coverage ~fractions ~seed =
  let bench = Dom_scripts.gate_bound in
  let full = Runner.profile_bench bench in
  let rng = Util.Rng.create seed in
  List.map
    (fun fraction ->
      let profile = Runtime.Profile.subset full ~fraction ~rng in
      let survived =
        match measure ~profile (Pkru_safe.Config.make Pkru_safe.Config.Mpk) bench with
        | (_ : int) -> true
        | exception Vmm.Fault.Unhandled _ -> false
      in
      (fraction, survived))
    fractions

(* §4.3.2: compare the adopted single-step profiler against the rejected
   "just switch compartments on the first fault" alternative.  Trusted
   code shares three distinct allocation sites with U within one FFI span;
   the alternative only ever observes the first. *)
let single_step_vs_switch () =
  let scenario install_handler =
    let machine = Sim.Machine.create () in
    let pk = Result.get_ok (Allocators.Pkalloc.create machine) in
    let gate = Runtime.Gate.create machine in
    let metadata = Runtime.Metadata.create () in
    let profile = Runtime.Profile.create () in
    install_handler machine metadata profile;
    let objects =
      List.map
        (fun i ->
          let addr = Option.get (Allocators.Pkalloc.alloc_trusted pk 64) in
          Runtime.Metadata.on_alloc metadata ~addr ~size:64
            ~alloc_id:(Runtime.Alloc_id.synthetic i);
          Sim.Machine.write_u64 machine addr i;
          addr)
        [ 1; 2; 3 ]
    in
    Runtime.Gate.call_untrusted gate (fun () ->
        List.iter (fun addr -> ignore (Sim.Machine.read_u64 machine addr)) objects);
    Runtime.Profile.cardinal profile
  in
  let with_single_step =
    scenario (fun machine metadata profile ->
        let saved = ref None in
        Sim.Signals.register_trap machine.Sim.Machine.signals (fun () ->
            match !saved with
            | Some pkru ->
              machine.Sim.Machine.cpu.Sim.Cpu.pkru <- pkru;
              saved := None
            | None -> ());
        Sim.Signals.register_segv machine.Sim.Machine.signals (fun fault ->
            match fault.Vmm.Fault.kind with
            | Vmm.Fault.Pkey_violation _ ->
              (match Runtime.Metadata.lookup metadata fault.Vmm.Fault.addr with
              | Some r -> Runtime.Profile.record profile r.Runtime.Metadata.alloc_id
              | None -> ());
              saved := Some machine.Sim.Machine.cpu.Sim.Cpu.pkru;
              machine.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_enabled;
              machine.Sim.Machine.cpu.Sim.Cpu.trap_flag <- true;
              Sim.Signals.Retry
            | _ -> Sim.Signals.Pass))
  in
  let with_switch =
    scenario (fun machine metadata profile ->
        Sim.Signals.register_segv machine.Sim.Machine.signals (fun fault ->
            match fault.Vmm.Fault.kind with
            | Vmm.Fault.Pkey_violation _ ->
              (match Runtime.Metadata.lookup metadata fault.Vmm.Fault.addr with
              | Some r -> Runtime.Profile.record profile r.Runtime.Metadata.alloc_id
              | None -> ());
              (* Rejected design: reset PKRU and keep running — every later
                 access in this span is silently permitted. *)
              machine.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_enabled;
              Sim.Signals.Retry
            | _ -> Sim.Signals.Pass))
  in
  (with_single_step, with_switch)
