(* The multi-session fleet: N concurrent browsing sessions over the
   simulated machine, scheduled over per-CPU run queues.

   Each session is a complete vertical slice — its own [Pkru_safe.Env]
   (machine, gates, pkalloc), its own browser and engine — so sessions
   are structurally independent: per-session simulated cycles,
   transitions and output cannot depend on how sessions interleave
   (DESIGN.md §12).  A fleet run therefore has two halves:

   - {b Independent runs}: every session runs to completion on its own,
     as one job of a {!Util.Pool} over OCaml 5 domains.  Its evaluator
     is handed the timeslice and an action ({!Eval.set_yield}) that the
     evaluator runs after the charge of every [timeslice]-th tick, on
     every execution tier.  The action ends a {e slice}: it records the
     machine cycles and the session's page-budget events since the last
     yield point, and with [gate_reverify] armed re-checks the session's
     live PKRU there.  It charges no simulated cycles and emits nothing,
     and the session itself runs through [Workloads.Runner] ([load],
     then [run_scripts]), so a fleet run of one session is bit-identical
     to [Runner.run_config] by construction (still asserted by test and
     bench).  A job keeps only the
     session's outcome, cycles, transitions, output checksum and slices;
     the world is garbage once the job returns, so host memory is
     bounded by the domain count.

   - {b The replayed schedule}: the calling domain then runs the
     scheduler over the recorded slices.  One FIFO per scheduler CPU,
     each with a virtual clock advanced by the simulated cycles of the
     slices it serves (1 cycle = 1 ns, as everywhere in the repo); the
     CPU with the smallest clock is served next — a deterministic
     discrete-event simulation of parallel harts.  A CPU with an empty
     queue first admits pending sessions (at most [max_live] at once, a
     simulated admission bound), then steals the back half of the
     longest queue.

   - {b Memory contention}: with [page_budget] set, a session runs on a
     recorder ({!Allocators.Backing.recorder}) that grants its takes; the
     replay applies each slice's takes and gives to the one shared budget
     in schedule order.  When the shared budget refuses a take the
     session made, that session alone is run again with the take refused
     (by its ordinal) and its slices from that point on replace the old
     ones — exactly what a sequential run would have done, since a
     session's behaviour depends on the budget only through what its
     takes answer.  The victim usually retires with an [Oom] outcome
     while the fleet keeps going; a retired session returns its pages.

   Sessions share no mutable state: every telemetry slot, engine flag and
   cache lives on a session's own machine, heap or browser, so any domain
   can run any session. *)

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

(* --- Independent runs --- *)

(* One slice of a session's run: the machine cycles it retired, and
   where its page-budget events end in the run's [rc_events]. *)
type slice = {
  sl_cycles : int;
  sl_upto : int;
}

(* What a session's run leaves behind: all but the last slice end at a
   yield point. *)
type recording = {
  rc_outcome : outcome;
  rc_cycles : int;
  rc_transitions : int;
  rc_checksum : int;
  rc_slices : slice array;
  rc_events : int array; (* page-budget events, oldest first *)
  rc_trace : Telemetry.Sink.t option; (* telemetry mode only *)
}

(* Gate re-verification refused the session at a yield point: its run
   ends there, fail-stop.  The recording is taken before the exception
   unwinds the session, so nothing the unwinding does (gate exits in
   [Fun.protect] brackets) counts. *)
exception Killed of recording

let checksum ~output ~cycles ~transitions =
  let h = List.fold_left (fun acc line -> Hashtbl.hash (acc, line)) 0 output in
  Hashtbl.hash (h, cycles, transitions)

(* A session's run in progress. *)
type progress = {
  pg_backing : Allocators.Backing.t option; (* the session's recorder *)
  pg_sink : Telemetry.Sink.t option;
  mutable pg_env : Pkru_safe.Env.t option;
  mutable pg_browser : Browser.t option;
  mutable pg_last : int; (* machine cycles at the last slice boundary *)
  mutable pg_slices : slice list; (* newest first *)
}

(* Ends the current slice. *)
let cut pg =
  let cycles =
    match pg.pg_env with
    | Some env ->
      let now = Sim.Machine.cycles (Pkru_safe.Env.machine env) in
      let d = now - pg.pg_last in
      pg.pg_last <- now;
      d
    | None -> 0
  in
  let upto = match pg.pg_backing with Some b -> Allocators.Backing.recorded b | None -> 0 in
  pg.pg_slices <- { sl_cycles = cycles; sl_upto = upto } :: pg.pg_slices

(* The session's figures, then teardown: pages back to the budget. *)
let finish pg outcome =
  let cycles, transitions, output =
    match (pg.pg_env, pg.pg_browser) with
    | Some env, Some browser ->
      (Pkru_safe.Env.cycles env, Pkru_safe.Env.transitions env, Browser.console browser)
    | Some env, None -> (Pkru_safe.Env.cycles env, Pkru_safe.Env.transitions env, [])
    | None, _ -> (0, 0, [])
  in
  (match pg.pg_env with
  | Some env -> Allocators.Pkalloc.retire (Pkru_safe.Env.pkalloc env)
  | None -> ());
  cut pg;
  {
    rc_outcome = outcome;
    rc_cycles = cycles;
    rc_transitions = transitions;
    rc_checksum = checksum ~output ~cycles ~transitions;
    rc_slices = Array.of_list (List.rev pg.pg_slices);
    rc_events =
      (match pg.pg_backing with Some b -> Allocators.Backing.events b | None -> [||]);
    rc_trace = pg.pg_sink;
  }

(* A yield point ends a slice.  Garmr defense (gate_reverify): there,
   re-check the session's live PKRU against its gate's resident view.  A
   mismatch retires the session fail-stop before another instruction
   runs — a kernel refusing to schedule a corrupted thread. *)
let yield_point pg ~reverify env =
  cut pg;
  if reverify then
    match Runtime.Gate.reverify (Pkru_safe.Env.gate env) with
    | () -> ()
    | exception Sim.Signals.Process_killed msg -> raise (Killed (finish pg (Failed msg)))

(* Runs one session to completion through [Workloads.Runner]: [load]
   builds the world on the session's budget recorder, then the scripts
   are [run_scripts]' timed run (traced in [telemetry] mode, which is
   single-session only).  The session adds the yield hook (the page load
   ticks no evaluator) and the outcome classification.  [refuse] lists
   the budget takes the session's recorder refuses. *)
let run_session ~config ~profile ~page_budget ~tier ~timeslice ~telemetry ~refuse job =
  let backing =
    if page_budget then Some (Allocators.Backing.recorder ~refuse) else None
  in
  let sink = if telemetry then Some (Telemetry.Sink.create ()) else None in
  let pg =
    {
      pg_backing = backing;
      pg_sink = sink;
      pg_env = None;
      pg_browser = None;
      pg_last = 0;
      pg_slices = [];
    }
  in
  (* [load] reads the page and the engine seed; the job's scripts are
     the timed run. *)
  let bench = Workloads.Bench_def.bench ~page:job.job_page job.job_name "" in
  match
    let browser =
      Workloads.Runner.load ?backing
        ~arm:(fun env -> pg.pg_env <- Some env)
        ~profile config
        { bench with engine_seed = job.job_seed }
    in
    pg.pg_browser <- Some browser;
    let env = Browser.env browser in
    let reverify = config.Pkru_safe.Config.defenses.Pkru_safe.Config.gate_reverify in
    Engine.Eval.set_yield (Engine.evaluator (Browser.engine browser)) ~timeslice (fun () ->
        yield_point pg ~reverify env);
    Workloads.Runner.run_scripts ?trace:sink ?engine_tier:tier browser job.job_scripts
  with
  | () -> finish pg Completed
  | exception Killed r -> r
  | exception Out_of_memory -> finish pg Oom
  | exception e -> finish pg (Failed (Printexc.to_string e))

(* --- The replayed schedule --- *)

type session = {
  s_id : int;
  s_job : job;
  mutable s_cpu : int;
  s_admitted_at : int; (* admitting CPU's vclock, in cycles *)
  mutable s_run : recording;
  mutable s_next : int; (* the next slice to serve *)
  mutable s_refuse : int list; (* takes the shared budget refused *)
}

let run ?(mode = Pkru_safe.Config.Base) ?profile ?(cpus = 1) ?(timeslice = 4000)
    ?(max_live = 128) ?page_budget ?tier ?(telemetry = false)
    ?(defenses = Pkru_safe.Config.no_defenses) ?domains ~sessions:n jobs =
  if n <= 0 then invalid_arg "Fleet.run: sessions must be positive";
  if cpus <= 0 then invalid_arg "Fleet.run: cpus must be positive";
  if timeslice <= 0 then invalid_arg "Fleet.run: timeslice must be positive";
  if max_live <= 0 then invalid_arg "Fleet.run: max_live must be positive";
  if jobs = [] then invalid_arg "Fleet.run: no jobs";
  if telemetry && (n <> 1 || cpus <> 1) then
    invalid_arg "Fleet.run: telemetry traces are single-session only (sessions=1, cpus=1)";
  let profile = match profile with Some p -> p | None -> Runtime.Profile.create () in
  let config = Pkru_safe.Config.make ~defenses mode in
  let backing = Option.map (fun pages -> Allocators.Backing.create ~pages) page_budget in
  let job_arr = Array.of_list jobs in
  let named =
    Array.init n (fun id ->
        let job = job_arr.(id mod Array.length job_arr) in
        { job with job_name = Printf.sprintf "%s#%d" job.job_name id })
  in
  let run_job ~refuse job =
    run_session ~config ~profile ~page_budget:(Option.is_some backing) ~tier ~timeslice
      ~telemetry ~refuse job
  in
  let runs = Util.Pool.map ?domains (run_job ~refuse:[]) named in
  let queues : session list ref array = Array.init cpus (fun _ -> ref []) in
  let vclock = Array.make cpus 0 in
  let next_id = ref 0 in
  let live = ref 0 in
  let yields = ref 0 in
  let steals = ref 0 in
  let finished : session_result list ref = ref [] in
  let trace = ref None in
  let nfinished = ref 0 in
  let admit c =
    let id = !next_id in
    incr next_id;
    incr live;
    let sess =
      {
        s_id = id;
        s_job = named.(id);
        s_cpu = c;
        s_admitted_at = vclock.(c);
        s_run = runs.(id);
        s_next = 0;
        s_refuse = [];
      }
    in
    queues.(c) := !(queues.(c)) @ [ sess ]
  in
  (* Eager admission: keep [max_live] sessions admitted as long as
     descriptors remain, each onto the currently shortest queue (lowest
     index breaks ties).  This is what makes sessions *concurrent* — they
     queue behind each other (latency = queueing + service) and contend
     for the shared page budget. *)
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
  let finalize c sess =
    decr live;
    incr nfinished;
    let r = sess.s_run in
    trace := r.rc_trace;
    finished :=
      {
        sr_index = sess.s_id;
        sr_name = sess.s_job.job_name;
        sr_cpu = sess.s_cpu;
        sr_cycles = r.rc_cycles;
        sr_transitions = r.rc_transitions;
        sr_checksum = r.rc_checksum;
        sr_latency_cycles = vclock.(c) - sess.s_admitted_at;
        sr_outcome = r.rc_outcome;
      }
      :: !finished
  in
  (* Apply slice [i]'s budget events from [from] on.  A take the shared
     budget refuses re-runs the session with that take refused too; the
     new run is the old one up to the refused take, so the events before
     it stand and the replay goes on after it. *)
  let rec apply_budget b sess i from =
    let r = sess.s_run in
    match Allocators.Backing.replay b r.rc_events ~from ~upto:r.rc_slices.(i).sl_upto with
    | None -> ()
    | Some k ->
      sess.s_refuse <- k :: sess.s_refuse;
      sess.s_run <- run_job ~refuse:sess.s_refuse sess.s_job;
      apply_budget b sess i (k + 1)
  in
  let run_slice c sess =
    let i = sess.s_next in
    (match backing with
    | Some b -> apply_budget b sess i (if i = 0 then 0 else sess.s_run.rc_slices.(i - 1).sl_upto)
    | None -> ());
    (* Advance the CPU by the simulated cycles this slice retired. *)
    vclock.(c) <- vclock.(c) + sess.s_run.rc_slices.(i).sl_cycles;
    sess.s_next <- i + 1;
    if sess.s_next < Array.length sess.s_run.rc_slices then begin
      incr yields;
      queues.(c) := !(queues.(c)) @ [ sess ]
    end
    else finalize c sess
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
    r_trace = !trace;
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

type _ Effect.t += Yield : unit Effect.t

type step =
  | Done of outcome
  | Parked of (unit, step) Effect.Deep.continuation

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
