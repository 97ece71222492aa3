(* Operations: one page plus its scripts run under one build
   configuration, and the profiling runs that precede them.

   [run] performs the steps of [Workloads.Runner.run_config] one layer
   call at a time (environment, browser, page load, counter reset, timed
   script phase), so each call can be timed on its own; the pinned
   digests in pins.txt were cross-checked against [Runner.run_config]
   when they were written (see [write_all_pins] in perfbench.ml). *)

module Env = Pkru_safe.Env
module Config = Pkru_safe.Config

type job = {
  name : string;
  page : string;
  scripts : string list;
  seed : int;  (** engine Math.random seed *)
}

type result = {
  cycles : int;
  transitions : int;
  output : string list;
  mt_bytes : int;
  mu_bytes : int;
  tlb : Sim.Tlb.stats;  (** TLB deltas over the timed script phase *)
  mt_allocs : int;  (** pkalloc MT allocations during the script phase *)
  mu_allocs : int;
  var_hits : int;
  var_misses : int;
  prop_hits : int;
  prop_misses : int;
  super_execs : int;
  sel_hits : int;
  sel_misses : int;
  host_s : float;  (** host seconds of the whole operation *)
}

(* Per-pass host-time accumulators, reset by [reset]. *)
let setup_s = ref 0.0 (* profiling runs and Env/Browser/page construction *)
let exec_s = ref 0.0 (* timed script phases *)
let op_s = ref 0.0 (* whole measured operations (construction + scripts) *)
let profile_s = ref 0.0
let profile_faults = ref 0

let reset () =
  setup_s := 0.0;
  exec_s := 0.0;
  op_s := 0.0;
  profile_s := 0.0;
  profile_faults := 0

let ok what = function Ok v -> v | Error msg -> failwith (what ^ ": " ^ msg)

let mode_name = function
  | Config.Base -> "base"
  | Config.Alloc -> "alloc"
  | Config.Mpk -> "mpk"
  | Config.Profiling -> "profiling"

let construct ?profile ~mode job =
  let env =
    Trace.call "core.env_create" (fun () -> ok "Env.create" (Env.create ?profile (Config.make mode)))
  in
  let browser = Trace.call "browser.create" (fun () -> Browser.create ~engine_seed:job.seed env) in
  Trace.call "browser.load_page" (fun () -> Browser.load_page browser job.page);
  (env, browser)

let exec_scripts ?tier browser job =
  List.iter (fun script -> ignore (Browser.exec_script ?tier browser script)) job.scripts

(* A profiling run ([Runner.profile_bench]): the recorded profile and the
   number of faults the provenance runtime serviced. *)
let profile ?tier job =
  Calib.tick ();
  let t0 = Trace.now () in
  let r =
    Trace.call "runner.profile_bench" (fun () ->
        let env, browser = construct ~mode:Config.Profiling job in
        Trace.call "runtime.profile_exec" (fun () -> exec_scripts ?tier browser job);
        let faults =
          match Env.profiler env with
          | Some p -> Runtime.Profiler.faults_serviced p
          | None -> 0
        in
        profile_faults := !profile_faults + faults;
        Trace.call "runtime.recorded_profile" (fun () -> Env.recorded_profile env))
  in
  let dt = Trace.now () -. t0 in
  profile_s := !profile_s +. dt;
  setup_s := !setup_s +. dt;
  r

(* The paper's per-suite profile: the merge of every job's profiling run. *)
let profile_all ?tier jobs =
  List.fold_left
    (fun acc job ->
      let p = profile ?tier job in
      Trace.call "runtime.profile_merge" (fun () -> Runtime.Profile.merge acc p))
    (Runtime.Profile.create ()) jobs

let run ?tier ~mode ~profile job =
  Calib.tick ();
  let t0 = Trace.now () in
  Trace.call "runner.run_config" @@ fun () ->
  let env, browser = construct ~profile ~mode job in
  Env.reset_counters env;
  let engine = Browser.engine browser in
  Engine.reset_stats engine;
  Browser.reset_selector_stats browser;
  let machine = Env.machine env and pk = Env.pkalloc env in
  let tlb () = Trace.call "machine.tlb_stats" (fun () -> Sim.Machine.tlb_stats machine) in
  let allocs () =
    Trace.call "allocators.stats" (fun () ->
        ( (Allocators.Pkalloc.trusted_stats pk).Allocators.Alloc_stats.allocs,
          (Allocators.Pkalloc.untrusted_stats pk).Allocators.Alloc_stats.allocs ))
  in
  let tlb0 = tlb () in
  let mt0, mu0 = allocs () in
  let t1 = Trace.now () in
  setup_s := !setup_s +. (t1 -. t0);
  Trace.call "engine.exec_script" (fun () -> exec_scripts ?tier browser job);
  let t2 = Trace.now () in
  exec_s := !exec_s +. (t2 -. t1);
  let tlb1 = tlb () in
  let mt1, mu1 = allocs () in
  let ic = Engine.Eval.ic_stats (Engine.evaluator engine) in
  let ts = Engine.threaded_stats engine in
  let sel = Browser.selector_stats browser in
  let mt_bytes, mu_bytes = Env.t_heap_bytes env in
  let r =
    {
      cycles = Env.cycles env;
      transitions = Env.transitions env;
      output = Browser.console browser;
      mt_bytes;
      mu_bytes;
      tlb =
        {
          Sim.Tlb.hits = tlb1.Sim.Tlb.hits - tlb0.Sim.Tlb.hits;
          misses = tlb1.Sim.Tlb.misses - tlb0.Sim.Tlb.misses;
          flushes = tlb1.Sim.Tlb.flushes - tlb0.Sim.Tlb.flushes;
        };
      mt_allocs = mt1 - mt0;
      mu_allocs = mu1 - mu0;
      var_hits = ic.Engine.Eval.var_hits;
      var_misses = ic.Engine.Eval.var_misses;
      prop_hits = ts.Engine.Threaded.prop_hits;
      prop_misses = ts.Engine.Threaded.prop_misses;
      super_execs = ts.Engine.Threaded.super_execs;
      sel_hits = sel.Browser.sel_hits;
      sel_misses = sel.Browser.sel_misses;
      host_s = Trace.now () -. t0;
    }
  in
  op_s := !op_s +. r.host_s;
  r

(* What the pins record for one operation: simulated cycles, transitions
   and a digest of the console output. *)
let output_digest output = String.sub (Digest.to_hex (Digest.string (String.concat "\n" output))) 0 16

let pin_value r = Printf.sprintf "%d %d %s" r.cycles r.transitions (output_digest r.output)
