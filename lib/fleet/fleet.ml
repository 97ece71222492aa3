(* The multi-session fleet: a cooperative multi-CPU scheduler that runs N
   concurrent browsing sessions over the simulated machine.

   Each session is a complete vertical slice — its own [Pkru_safe.Env]
   (machine, gates, pkalloc), its own browser and engine — so sessions
   are structurally independent: per-session simulated cycles,
   transitions and traces cannot depend on how sessions interleave.  The
   scheduler multiplexes them over per-CPU run queues:

   - {b Yield points}: each session's evaluator is handed the timeslice
     and an action that performs the {!Yield} effect ({!Eval.set_yield});
     the evaluator counts the timeslice in its fuel countdown, on every
     execution tier, and runs the action after the charge of every
     [timeslice]-th tick.  The scheduler's handler captures the one-shot
     continuation and parks the session.  The action charges no simulated
     cycles and emits nothing, so a fleet run of one session is
     bit-identical to the plain [Runner] path (asserted by test and
     bench).

   - {b Run queues}: one FIFO per scheduler CPU, each with a virtual
     clock advanced by the simulated cycles its sessions retire (1 cycle
     = 1 ns, as everywhere in the repo).  The host-sequential loop
     always serves the CPU with the smallest clock — a deterministic
     discrete-event simulation of parallel harts, so results are
     reproducible for any CPU count.

   - {b Work stealing}: a CPU with an empty queue first admits pending
     sessions (bounded by [max_live], which also bounds host memory at
     N=100k), then steals the back half of the longest queue.

   - {b Memory contention}: with [page_budget] set, every session's
     pools draw from one shared {!Allocators.Backing} budget; exhaustion
     surfaces as [Out_of_memory] in the victim session, which retires
     with an [Oom] outcome while the fleet keeps going.  Retired
     sessions return their pages.

   Sessions share no mutable state: every telemetry slot, engine flag and
   cache lives on a session's own machine, heap or browser, so a parked
   slice needs nothing saved or restored. *)

type job = {
  job_name : string;
  job_page : string;
  job_scripts : string list;
  job_seed : int;
}

let job_of_bench (b : Workloads.Bench_def.bench) =
  {
    job_name = b.Workloads.Bench_def.name;
    job_page = b.Workloads.Bench_def.page;
    job_scripts = [ b.Workloads.Bench_def.script ];
    job_seed = b.Workloads.Bench_def.engine_seed;
  }

type outcome =
  | Completed
  | Oom
  | Failed of string

let outcome_to_string = function
  | Completed -> "completed"
  | Oom -> "oom"
  | Failed msg -> "failed: " ^ msg

type session_result = {
  sr_index : int;
  sr_name : string;
  sr_cpu : int;
  sr_cycles : int;
  sr_transitions : int;
  sr_checksum : int;
  sr_latency_cycles : int;
  sr_outcome : outcome;
}

type backing_stats = {
  bk_total_pages : int;
  bk_min_available : int;
  bk_denials : int;
}

type result = {
  r_sessions : int;
  r_cpus : int;
  r_timeslice : int;
  r_makespan_cycles : int;
  r_sessions_per_sec : float;
  r_p50_latency_ns : float;
  r_p99_latency_ns : float;
  r_total_cycles : int;
  r_yields : int;
  r_steals : int;
  r_completed : int;
  r_oom : int;
  r_failed : int;
  r_results : session_result list;
  r_trace : Telemetry.Sink.t option;
  r_backing : backing_stats option;
}

(* --- Cooperative scheduling over effects --- *)

type _ Effect.t += Yield : unit Effect.t

type step =
  | Done of outcome
  | Parked of (unit, step) Effect.Deep.continuation

type session = {
  s_id : int;
  s_job : job;
  mutable s_cpu : int;
  s_admitted_at : int; (* admitting CPU's vclock, in cycles *)
  mutable s_env : Pkru_safe.Env.t option; (* set by the body's first slice *)
  mutable s_browser : Browser.t option;
  mutable s_cont : (unit, step) Effect.Deep.continuation option;
  mutable s_last_cycles : int; (* machine cycles at the last slice boundary *)
}

let handler =
  {
    Effect.Deep.retc = (fun () -> Done Completed);
    exnc =
      (fun e ->
        match e with
        | Out_of_memory -> Done Oom
        | Effect.Unhandled _ as e -> raise e
        | e -> Done (Failed (Printexc.to_string e)));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield ->
          Some (fun (k : (a, step) Effect.Deep.continuation) -> Parked k)
        | _ -> None);
  }

let checksum ~output ~cycles ~transitions =
  let h = List.fold_left (fun acc line -> Hashtbl.hash (acc, line)) 0 output in
  Hashtbl.hash (h, cycles, transitions)

(* The session body.  Mirrors the [Runner.run_config] measurement
   protocol exactly: environment/browser construction and page load are
   setup, counters reset, then the scripts are the timed run.  In
   [telemetry] mode (single-session only) the script phase runs under a
   sink and the same post-run counter injections as the runner, so the
   event trace is comparable bit-for-bit. *)
let session_body ~mode ~profile ~backing ~tier ~timeslice ~sink ~defenses sess () =
  let env =
    match Pkru_safe.Env.create ~profile ?backing (Pkru_safe.Config.make ~defenses mode) with
    | Ok env -> env
    | Error msg -> failwith ("Fleet: Env.create: " ^ msg)
  in
  sess.s_env <- Some env;
  let browser = Browser.create ~engine_seed:sess.s_job.job_seed env in
  sess.s_browser <- Some browser;
  Engine.Eval.set_yield (Engine.evaluator (Browser.engine browser)) ~timeslice (fun () ->
      Effect.perform Yield);
  Browser.load_page browser sess.s_job.job_page;
  Pkru_safe.Env.reset_counters env;
  Browser.reset_selector_stats browser;
  let exec () =
    List.iter
      (fun script -> ignore (Browser.exec_script ?tier browser script))
      sess.s_job.job_scripts
  in
  match sink with
  | None -> exec ()
  | Some sink -> Workloads.Runner.run_traced sink browser exec

(* --- The scheduler --- *)

let run ?(mode = Pkru_safe.Config.Base) ?profile ?(cpus = 1) ?(timeslice = 4000)
    ?(max_live = 128) ?page_budget ?tier ?(telemetry = false)
    ?(defenses = Pkru_safe.Config.no_defenses) ~sessions:n jobs =
  if n <= 0 then invalid_arg "Fleet.run: sessions must be positive";
  if cpus <= 0 then invalid_arg "Fleet.run: cpus must be positive";
  if timeslice <= 0 then invalid_arg "Fleet.run: timeslice must be positive";
  if max_live <= 0 then invalid_arg "Fleet.run: max_live must be positive";
  if jobs = [] then invalid_arg "Fleet.run: no jobs";
  if telemetry && (n <> 1 || cpus <> 1) then
    invalid_arg "Fleet.run: telemetry traces are single-session only (sessions=1, cpus=1)";
  let profile = match profile with Some p -> p | None -> Runtime.Profile.create () in
  let backing = Option.map (fun pages -> Allocators.Backing.create ~pages) page_budget in
  let sink = if telemetry then Some (Telemetry.Sink.create ()) else None in
  let njobs = List.length jobs in
  let job_arr = Array.of_list jobs in
  let queues : session list ref array = Array.init cpus (fun _ -> ref []) in
  let vclock = Array.make cpus 0 in
  let next_id = ref 0 in
  let live = ref 0 in
  let yields = ref 0 in
  let steals = ref 0 in
  let finished : session_result list ref = ref [] in
  let nfinished = ref 0 in
  let admit c =
    let id = !next_id in
    incr next_id;
    incr live;
    let job = job_arr.(id mod njobs) in
    let job = { job with job_name = Printf.sprintf "%s#%d" job.job_name id } in
    let sess =
      {
        s_id = id;
        s_job = job;
        s_cpu = c;
        s_admitted_at = vclock.(c);
        s_env = None;
        s_browser = None;
        s_cont = None;
        s_last_cycles = 0;
      }
    in
    queues.(c) := !(queues.(c)) @ [ sess ]
  in
  (* Eager admission: keep [max_live] sessions materialised as long as
     descriptors remain, each onto the currently shortest queue (lowest
     index breaks ties).  This is what makes sessions *concurrent* — they
     queue behind each other (latency = queueing + service) and contend
     for the shared page budget — while [max_live] still bounds host
     memory at N=100k. *)
  let admit_pending () =
    while !next_id < n && !live < max_live do
      let best = ref 0 in
      for i = 1 to cpus - 1 do
        if List.length !(queues.(i)) < List.length !(queues.(!best)) then best := i
      done;
      admit !best
    done
  in
  (* Steal the back half of the longest other queue (>= 2 entries so the
     victim keeps its head).  Deterministic: longest wins, lowest index
     breaks ties. *)
  let try_steal c =
    let victim = ref (-1) and best = ref 1 in
    Array.iteri
      (fun i q ->
        let len = List.length !q in
        if i <> c && len > !best then begin
          victim := i;
          best := len
        end)
      queues;
    if !victim >= 0 && !best >= 2 then begin
      let q = !(queues.(!victim)) in
      let keep = List.length q - (List.length q / 2) in
      let kept = List.filteri (fun i _ -> i < keep) q in
      let stolen = List.filteri (fun i _ -> i >= keep) q in
      queues.(!victim) := kept;
      List.iter (fun s -> s.s_cpu <- c) stolen;
      queues.(c) := !(queues.(c)) @ stolen;
      steals := !steals + List.length stolen
    end
  in
  (* Serve the CPU with the smallest virtual clock; at equal clocks a
     CPU with runnable work beats an idle one, lower id breaks the rest. *)
  let select () =
    let best = ref 0 in
    for c = 1 to cpus - 1 do
      let better =
        vclock.(c) < vclock.(!best)
        || (vclock.(c) = vclock.(!best)
            && !(queues.(c)) <> [] && !(queues.(!best)) = [])
      in
      if better then best := c
    done;
    !best
  in
  let finalize c sess outcome =
    decr live;
    incr nfinished;
    let cycles, transitions, output =
      match sess.s_env, sess.s_browser with
      | Some env, Some browser ->
        (Pkru_safe.Env.cycles env, Pkru_safe.Env.transitions env, Browser.console browser)
      | Some env, None -> (Pkru_safe.Env.cycles env, Pkru_safe.Env.transitions env, [])
      | None, _ -> (0, 0, [])
    in
    (* Teardown: pages back to the shared budget, references dropped so
       the session's machine is collectable under max_live. *)
    (match sess.s_env with
    | Some env -> Allocators.Pkalloc.retire (Pkru_safe.Env.pkalloc env)
    | None -> ());
    sess.s_env <- None;
    sess.s_browser <- None;
    sess.s_cont <- None;
    finished :=
      {
        sr_index = sess.s_id;
        sr_name = sess.s_job.job_name;
        sr_cpu = sess.s_cpu;
        sr_cycles = cycles;
        sr_transitions = transitions;
        sr_checksum = checksum ~output ~cycles ~transitions;
        sr_latency_cycles = vclock.(c) - sess.s_admitted_at;
        sr_outcome = outcome;
      }
      :: !finished
  in
  (* Garmr defense (gate_reverify): before restoring a parked
     continuation, re-check the session's live PKRU against its gate's
     resident view.  A mismatch means some other hart flipped PKRU while
     the session was parked; the session is retired fail-stop without
     running a single instruction of the slice (the one-shot continuation
     is dropped, not resumed — exactly a kernel refusing to schedule a
     corrupted thread).  [None] = clean. *)
  let reverify_on_resume sess =
    if not defenses.Pkru_safe.Config.gate_reverify then None
    else
      match sess.s_env with
      | None -> None
      | Some env -> (
        try
          Runtime.Gate.reverify (Pkru_safe.Env.gate env);
          None
        with Sim.Signals.Process_killed msg -> Some msg)
  in
  let run_slice c sess =
    let step =
      match sess.s_cont with
      | Some k -> (
        sess.s_cont <- None;
        match reverify_on_resume sess with
        | Some msg -> Done (Failed msg)
        | None -> Effect.Deep.continue k ())
      | None ->
        Effect.Deep.match_with
          (session_body ~mode ~profile ~backing ~tier ~timeslice ~sink ~defenses sess)
          () handler
    in
    (* Advance the CPU by the simulated cycles this slice retired. *)
    (match sess.s_env with
    | Some env ->
      let now = Sim.Machine.cycles (Pkru_safe.Env.machine env) in
      vclock.(c) <- vclock.(c) + (now - sess.s_last_cycles);
      sess.s_last_cycles <- now
    | None -> ());
    match step with
    | Parked k ->
      incr yields;
      sess.s_cont <- Some k;
      queues.(c) := !(queues.(c)) @ [ sess ]
    | Done outcome -> finalize c sess outcome
  in
  while !nfinished < n do
    admit_pending ();
    let c = select () in
    if !(queues.(c)) = [] then try_steal c;
    match !(queues.(c)) with
    | sess :: rest ->
      queues.(c) := rest;
      run_slice c sess
    | [] ->
      (* Nothing runnable here: skip this CPU's clock forward to the
         busiest frontier so a loaded CPU (or the admission gate) makes
         progress next iteration. *)
      let m = ref max_int in
      Array.iteri (fun i q -> if !q <> [] && vclock.(i) < !m then m := vclock.(i)) queues;
      if !m < max_int then vclock.(c) <- max vclock.(c) !m
      else if !next_id < n then ()
        (* queues all empty but sessions remain: admission was gated by
           max_live and frees next loop (live just dropped) — retry. *)
      else assert (!nfinished >= n)
  done;
  let makespan = Array.fold_left max 0 vclock in
  (* Admission order, not completion order: completion order depends on
     the CPU count, and callers compare per-session results across CPU
     counts positionally. *)
  let results =
    List.sort (fun a b -> compare a.sr_index b.sr_index) !finished
  in
  let latencies =
    List.map (fun r -> float_of_int r.sr_latency_cycles) results
  in
  let count p = List.length (List.filter p results) in
  {
    r_sessions = n;
    r_cpus = cpus;
    r_timeslice = timeslice;
    r_makespan_cycles = makespan;
    r_sessions_per_sec =
      (if makespan = 0 then 0.0 else float_of_int n *. 1e9 /. float_of_int makespan);
    r_p50_latency_ns = Util.Stats.percentile 50.0 latencies;
    r_p99_latency_ns = Util.Stats.percentile 99.0 latencies;
    r_total_cycles = List.fold_left (fun acc r -> acc + r.sr_cycles) 0 results;
    r_yields = !yields;
    r_steals = !steals;
    r_completed = count (fun r -> r.sr_outcome = Completed);
    r_oom = count (fun r -> r.sr_outcome = Oom);
    r_failed = count (fun r -> match r.sr_outcome with Failed _ -> true | _ -> false);
    r_results = results;
    r_trace = sink;
    r_backing =
      Option.map
        (fun b ->
          {
            bk_total_pages = Allocators.Backing.total b;
            bk_min_available = Allocators.Backing.min_available b;
            bk_denials = Allocators.Backing.denials b;
          })
        backing;
  }

(* --- Attack-program scheduling (the Garmr battery) ----------------------

   [run_programs] multiplexes raw OCaml programs over ONE shared
   environment — unlike [run], whose sessions are structurally
   independent.  Sharing is the point: the Garmr attack classes only
   materialise when an attacker hart races a victim on the same machine
   (same page table, same signal dispositions, sibling harts).  Each
   program gets its own simulated thread (hart + gate + compartment
   stack); an explicit [yield] callback parks it mid-slice wherever it
   likes — including while resident in U, mid-gate — and the scheduler
   always resumes the runnable program whose hart has retired the fewest
   cycles (lowest index breaks ties), a deterministic discrete-event
   interleaving for any program count.

   When the environment's config enables [gate_reverify], every resume
   re-checks the thread's live PKRU against its gate's resident view
   before the slice runs; a mismatch retires the program fail-stop
   (continuation dropped, never resumed) with the flight dump naming the
   program — i.e. the attack — that died. *)

type program = {
  p_name : string;
  p_body : yield:(unit -> unit) -> unit;
}

type program_result = {
  pr_name : string;
  pr_hart : int;
  pr_outcome : outcome;
  pr_cycles : int; (* cycles this program's hart retired *)
  pr_yields : int;
  pr_resumes : int;
}

type battery = {
  b_programs : program_result list; (* program order *)
  b_makespan_cycles : int; (* max over program-hart cycles *)
  b_yields : int;
  b_resume_checks : int; (* gate re-verifications performed on resume *)
  b_resume_kills : int; (* resumes refused by re-verification *)
}

type prog_state = {
  ps_idx : int;
  ps_name : string;
  ps_thread : Pkru_safe.Env.thread;
  ps_body : yield:(unit -> unit) -> unit;
  mutable ps_started : bool;
  mutable ps_cont : (unit, step) Effect.Deep.continuation option;
  mutable ps_done : outcome option;
  mutable ps_yields : int;
  mutable ps_resumes : int;
}

let run_programs env programs =
  if programs = [] then invalid_arg "Fleet.run_programs: no programs";
  let defenses = (Pkru_safe.Env.config env).Pkru_safe.Config.defenses in
  let states =
    List.mapi
      (fun i (p : program) ->
        {
          ps_idx = i;
          ps_name = p.p_name;
          ps_thread = Pkru_safe.Env.spawn_thread env;
          ps_body = p.p_body;
          ps_started = false;
          ps_cont = None;
          ps_done = None;
          ps_yields = 0;
          ps_resumes = 0;
        })
      programs
  in
  let yields = ref 0 and resume_checks = ref 0 and resume_kills = ref 0 in
  let hart_cycles st = Sim.Cpu.cycles (Pkru_safe.Env.thread_cpu st.ps_thread) in
  (* Serve the runnable program whose hart has retired the fewest
     cycles; earlier program index breaks ties.  Every runnable program
     either starts or resumes, so the loop always terminates. *)
  let pick () =
    List.fold_left
      (fun best st ->
        match (best, st.ps_done) with
        | _, Some _ -> best
        | None, None -> Some st
        | Some b, None -> if hart_cycles st < hart_cycles b then Some st else best)
      None states
  in
  let run_slice st =
    let previous = Pkru_safe.Env.activate_thread env st.ps_thread in
    let step =
      if not st.ps_started then begin
        st.ps_started <- true;
        Effect.Deep.match_with
          (fun () -> st.ps_body ~yield:(fun () -> Effect.perform Yield))
          () handler
      end
      else begin
        let k = Option.get st.ps_cont in
        st.ps_cont <- None;
        st.ps_resumes <- st.ps_resumes + 1;
        let killed =
          if not defenses.Pkru_safe.Config.gate_reverify then None
          else begin
            incr resume_checks;
            try
              Runtime.Gate.reverify ~attack:st.ps_name
                (Pkru_safe.Env.thread_gate st.ps_thread);
              None
            with Sim.Signals.Process_killed msg -> Some msg
          end
        in
        match killed with
        | Some msg ->
          (* Fail-stop: the one-shot continuation is dropped, not
             resumed — the corrupted thread never runs again. *)
          incr resume_kills;
          Done (Failed msg)
        | None -> Effect.Deep.continue k ()
      end
    in
    ignore (Pkru_safe.Env.activate_thread env previous);
    match step with
    | Parked k ->
      incr yields;
      st.ps_yields <- st.ps_yields + 1;
      st.ps_cont <- Some k
    | Done outcome ->
      st.ps_cont <- None;
      st.ps_done <- Some outcome
  in
  let rec loop () =
    match pick () with
    | None -> ()
    | Some st ->
      run_slice st;
      loop ()
  in
  loop ();
  let results =
    List.map
      (fun st ->
        {
          pr_name = st.ps_name;
          pr_hart = (Pkru_safe.Env.thread_cpu st.ps_thread).Sim.Cpu.id;
          pr_outcome = (match st.ps_done with Some o -> o | None -> assert false);
          pr_cycles = hart_cycles st;
          pr_yields = st.ps_yields;
          pr_resumes = st.ps_resumes;
        })
      states
  in
  {
    b_programs = results;
    b_makespan_cycles = List.fold_left (fun acc r -> max acc r.pr_cycles) 0 results;
    b_yields = !yields;
    b_resume_checks = !resume_checks;
    b_resume_kills = !resume_kills;
  }

(* --- Export --- *)

let metrics r =
  let m = Telemetry.Metrics.create () in
  let outcome_counter outcome v =
    let c =
      Telemetry.Metrics.counter m ~help:"Sessions retired, by outcome"
        ~labels:[ ("outcome", outcome) ] "pkru_fleet_sessions_total"
    in
    Telemetry.Metrics.incr ~by:v c
  in
  outcome_counter "completed" r.r_completed;
  outcome_counter "oom" r.r_oom;
  outcome_counter "failed" r.r_failed;
  Telemetry.Metrics.set
    (Telemetry.Metrics.gauge m ~help:"Fleet throughput (sessions per simulated second)"
       "pkru_fleet_sessions_per_sec")
    r.r_sessions_per_sec;
  Telemetry.Metrics.set
    (Telemetry.Metrics.gauge m ~help:"Scheduler CPUs" "pkru_fleet_cpus")
    (float_of_int r.r_cpus);
  Telemetry.Metrics.set
    (Telemetry.Metrics.gauge m ~help:"Fleet makespan in simulated cycles"
       "pkru_fleet_makespan_cycles")
    (float_of_int r.r_makespan_cycles);
  Telemetry.Metrics.set
    (Telemetry.Metrics.gauge m ~help:"Session latency, ns"
       ~labels:[ ("quantile", "0.5") ] "pkru_fleet_session_latency_ns")
    r.r_p50_latency_ns;
  Telemetry.Metrics.set
    (Telemetry.Metrics.gauge m ~help:"Session latency, ns"
       ~labels:[ ("quantile", "0.99") ] "pkru_fleet_session_latency_ns")
    r.r_p99_latency_ns;
  Telemetry.Metrics.incr ~by:r.r_yields
    (Telemetry.Metrics.counter m ~help:"Cooperative yields" "pkru_fleet_yields_total");
  Telemetry.Metrics.incr ~by:r.r_steals
    (Telemetry.Metrics.counter m ~help:"Sessions migrated by work stealing"
       "pkru_fleet_steals_total");
  let latency_hist = Telemetry.Histogram.create () in
  List.iter (fun sr -> Telemetry.Histogram.observe latency_hist sr.sr_latency_cycles) r.r_results;
  Telemetry.Metrics.attach_histogram m ~help:"Session latency distribution, ns"
    "pkru_fleet_session_latency_ns_hist" latency_hist;
  (match r.r_backing with
  | None -> ()
  | Some b ->
    Telemetry.Metrics.set
      (Telemetry.Metrics.gauge m ~help:"Shared backing budget, pages" "pkru_fleet_backing_pages")
      (float_of_int b.bk_total_pages);
    Telemetry.Metrics.set
      (Telemetry.Metrics.gauge m ~help:"Backing budget low-water mark, pages"
         "pkru_fleet_backing_min_available_pages")
      (float_of_int b.bk_min_available);
    Telemetry.Metrics.incr ~by:b.bk_denials
      (Telemetry.Metrics.counter m ~help:"Backing budget denials" "pkru_fleet_backing_denials_total"));
  m

let to_json ?(per_session = false) r =
  let open Util.Json in
  let fields =
    [
      ("sessions", Int r.r_sessions);
      ("cpus", Int r.r_cpus);
      ("timeslice_ticks", Int r.r_timeslice);
      ("makespan_cycles", Int r.r_makespan_cycles);
      ("sessions_per_sec", Float r.r_sessions_per_sec);
      ("p50_latency_ns", Float r.r_p50_latency_ns);
      ("p99_latency_ns", Float r.r_p99_latency_ns);
      ("total_cycles", Int r.r_total_cycles);
      ("yields", Int r.r_yields);
      ("steals", Int r.r_steals);
      ("completed", Int r.r_completed);
      ("oom", Int r.r_oom);
      ("failed", Int r.r_failed);
    ]
  in
  let fields =
    match r.r_backing with
    | None -> fields
    | Some b ->
      fields
      @ [
          ( "backing",
            Obj
              [
                ("total_pages", Int b.bk_total_pages);
                ("min_available_pages", Int b.bk_min_available);
                ("denials", Int b.bk_denials);
              ] );
        ]
  in
  let fields =
    if not per_session then fields
    else
      fields
      @ [
          ( "sessions_detail",
            List
              (List.map
                 (fun sr ->
                   Obj
                     [
                       ("name", String sr.sr_name);
                       ("cpu", Int sr.sr_cpu);
                       ("cycles", Int sr.sr_cycles);
                       ("transitions", Int sr.sr_transitions);
                       ("checksum", Int sr.sr_checksum);
                       ("latency_cycles", Int sr.sr_latency_cycles);
                       ("outcome", String (outcome_to_string sr.sr_outcome));
                     ])
                 r.r_results) );
        ]
  in
  Obj fields
