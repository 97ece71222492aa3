type thread = {
  t_cpu : Sim.Cpu.t;
  t_gate : Runtime.Gate.t;
}

(* An allocation site interned by this environment: resolved once
   through [sites], after which every allocation from it reads its
   placement here instead of re-asking the profile and the quarantine
   table. *)
type site = {
  id : Runtime.Alloc_id.t;
  mutable moved : bool; (* placement, decided under [epoch] *)
  mutable epoch : int; (* [decision_epoch] when [moved] was decided *)
  mutable label : string; (* printed id; "" until first needed *)
  mutable next : site; (* next site whose id hashes alike *)
}

type t = {
  config : Config.t;
  machine : Sim.Machine.t;
  pkalloc : Allocators.Pkalloc.t;
  mutable active : thread;
  mutable threads : thread list;
  profiler : Runtime.Profiler.t option;
  mitigator : Runtime.Mitigator.t option;
  input_profile : Runtime.Profile.t;
  sites : site Util.Int_table.t; (* Alloc_id.hash -> chain of sites *)
  no_site : site; (* the table's dummy; never modified *)
  mutable sites_used : int;
  mutable sites_moved : int;
  mutable t_heap_bytes_mt : int; (* Env.alloc traffic kept in MT *)
  mutable t_heap_bytes_mu : int; (* Env.alloc traffic moved to MU *)
  (* Census state: a live-object table over Env.alloc traffic (both
     pools) plus per-object birth cycles, maintained only once
     [track_census] has been called so untracked runs pay nothing. *)
  mutable census_meta : Runtime.Metadata.t option;
  census_births : int Util.Int_table.t; (* addr -> birth cycle *)
}

let create ?profile ?backing config =
  let machine = Sim.Machine.create ~cost:config.Config.cost ~tlb:config.Config.tlb () in
  match
    Allocators.Pkalloc.create ?backing ~mu_backend:config.Config.mu_backend
      ~trusted_pkey:config.Config.trusted_pkey machine
  with
  | Error _ as e -> e
  | Ok pkalloc ->
    let main =
      {
        t_cpu = machine.Sim.Machine.cpu;
        t_gate = Runtime.Gate.create ~trusted_pkey:config.Config.trusted_pkey machine;
      }
    in
    let profiler =
      match config.Config.mode with
      | Config.Profiling ->
        let p = Runtime.Profiler.create ~trusted_pkey:config.Config.trusted_pkey machine in
        Runtime.Profiler.install p;
        Some p
      | Config.Base | Config.Alloc | Config.Mpk -> None
    in
    let mitigator =
      match (config.Config.mode, config.Config.mitigation) with
      | Config.Mpk, Some policy ->
        let m =
          Runtime.Mitigator.create ~trusted_pkey:config.Config.trusted_pkey ~policy ~pkalloc
            machine
        in
        Runtime.Mitigator.install m;
        Some m
      | _ -> None
    in
    let input_profile =
      match profile with
      | Some p -> p
      | None -> Runtime.Profile.create ()
    in
    (* Garmr hardened-gate policies: arm the kernel-side defenses this
       config opted into.  Each default is the pre-hardening behaviour,
       so a [no_defenses] env is indistinguishable from one built before
       the policies existed.  (Gate re-verification is a scheduler
       policy, consumed by the fleet — nothing to arm here.) *)
    let defenses = config.Config.defenses in
    if defenses.Config.sigframe_scrub then
      Sim.Signals.set_sigframe_scrub machine.Sim.Machine.signals true;
    if defenses.Config.syscall_filter then
      Sim.Machine.set_syscall_filter machine (Some config.Config.trusted_pkey);
    let rec no_site =
      { id = Runtime.Alloc_id.synthetic 0; moved = false; epoch = 0; label = ""; next = no_site }
    in
    Ok
      {
        config;
        machine;
        pkalloc;
        active = main;
        threads = [ main ];
        profiler;
        mitigator;
        input_profile;
        sites = Util.Int_table.create ~dummy:no_site 16;
        no_site;
        sites_used = 0;
        sites_moved = 0;
        t_heap_bytes_mt = 0;
        t_heap_bytes_mu = 0;
        census_meta = None;
        census_births = Util.Int_table.create ~dummy:0 16;
      }

let config t = t.config
let machine t = t.machine
let ctx t = t.machine.Sim.Machine.ctx
let pkalloc t = t.pkalloc
let gate t = t.active.t_gate
let profiler t = t.profiler
let mitigator t = t.mitigator

let spawn_thread t =
  let thread =
    {
      t_cpu = Sim.Machine.spawn_cpu t.machine;
      t_gate = Runtime.Gate.create ~trusted_pkey:t.config.Config.trusted_pkey t.machine;
    }
  in
  t.threads <- t.threads @ [ thread ];
  thread

let thread_cpu thread = thread.t_cpu
let thread_gate thread = thread.t_gate

(* Non-bracketed thread switch for effect-based schedulers (the fleet's
   attack battery): a [Fun.protect] bracket cannot straddle an
   [Effect.perform], so the scheduler activates a thread around each
   slice and restores the previous one itself.  Returns the previously
   active thread. *)
let activate_thread t thread =
  let previous = t.active in
  ignore (Sim.Machine.switch_to_cpu t.machine thread.t_cpu);
  t.active <- thread;
  previous

(* A site draws from MU when the input profile names it, or when the
   mitigator's Promote policy quarantined it at runtime (pkalloc's
   site-override table, keyed by printed AllocIds).  Both only grow, and
   each bumps a counter when it does, so their sum names the state a
   cached decision was made under. *)
let decision_epoch t =
  Runtime.Profile.version t.input_profile + Allocators.Pkalloc.quarantine_generation t.pkalloc

let site_label s =
  if String.length s.label = 0 then s.label <- Runtime.Alloc_id.to_string s.id;
  s.label

let[@inline never] decide t s epoch =
  s.moved <-
    Config.split_heap t.config
    && (Runtime.Profile.mem t.input_profile s.id
       || Allocators.Pkalloc.quarantined_count t.pkalloc > 0
          && Allocators.Pkalloc.site_quarantined t.pkalloc (site_label s));
  s.epoch <- epoch

let same_id (a : Runtime.Alloc_id.t) (b : Runtime.Alloc_id.t) =
  a.func_id = b.func_id && a.block_id = b.block_id && a.call_id = b.call_id

(* First sight of a site (or a hash collision): walk the chain, and
   intern the site when it is new.  [sites_moved] counts sites by the
   placement of their first allocation. *)
let[@inline never] intern t id h =
  let head = Util.Int_table.get t.sites h in
  let rec walk s =
    if s == t.no_site then begin
      let s = { id; moved = false; epoch = 0; label = ""; next = head } in
      Util.Int_table.replace t.sites h s;
      decide t s (decision_epoch t);
      t.sites_used <- t.sites_used + 1;
      if s.moved then t.sites_moved <- t.sites_moved + 1;
      s
    end
    else if same_id s.id id then s
    else walk s.next
  in
  walk head

let site_of t id =
  let h = Runtime.Alloc_id.hash id in
  let s = Util.Int_table.get t.sites h in
  if s != t.no_site && same_id s.id id then s else intern t id h

let alloc t ~site size =
  let s = site_of t site in
  let epoch = decision_epoch t in
  if s.epoch <> epoch then decide t s epoch;
  let moved = s.moved in
  (* The AllocId label is only rendered when a telemetry sink is
     attached; disabled runs never build the string. *)
  let label =
    match (ctx t).Telemetry.Ctx.sink with
    | None -> None
    | Some _ -> Some (site_label s)
  in
  let result =
    if moved then Allocators.Pkalloc.alloc_untrusted ?site:label t.pkalloc size
    else Allocators.Pkalloc.alloc_trusted ?site:label t.pkalloc size
  in
  match result with
  | None -> raise Out_of_memory
  | Some addr ->
    if moved then t.t_heap_bytes_mu <- t.t_heap_bytes_mu + size
    else t.t_heap_bytes_mt <- t.t_heap_bytes_mt + size;
    (match t.profiler with
    | Some p -> Runtime.Profiler.log_alloc p ~alloc_id:site ~addr ~size
    | None -> ());
    (match t.mitigator with
    | Some m -> Runtime.Mitigator.log_alloc m ~alloc_id:site ~addr ~size
    | None -> ());
    (match t.census_meta with
    | Some meta ->
      Runtime.Metadata.on_alloc meta ~addr ~size ~alloc_id:site;
      Util.Int_table.replace t.census_births addr (Sim.Machine.cycles t.machine)
    | None -> ());
    addr

let dealloc t addr =
  (match t.profiler with
  | Some p -> Runtime.Profiler.log_dealloc p ~addr
  | None -> ());
  (match t.mitigator with
  | Some m -> Runtime.Mitigator.log_dealloc m ~addr
  | None -> ());
  (match t.census_meta with
  | Some meta ->
    Runtime.Metadata.on_dealloc meta ~addr;
    Util.Int_table.remove t.census_births addr
  | None -> ());
  Allocators.Pkalloc.dealloc t.pkalloc addr

let realloc t addr new_size =
  match Allocators.Pkalloc.realloc t.pkalloc addr new_size with
  | None -> raise Out_of_memory
  | Some fresh ->
    (match t.profiler with
    | Some p -> Runtime.Profiler.log_realloc p ~old_addr:addr ~new_addr:fresh ~new_size
    | None -> ());
    (match t.mitigator with
    | Some m -> Runtime.Mitigator.log_realloc m ~old_addr:addr ~new_addr:fresh ~new_size
    | None -> ());
    (match t.census_meta with
    | Some meta ->
      Runtime.Metadata.on_realloc meta ~old_addr:addr ~new_addr:fresh ~new_size;
      (* The object's identity — and so its birth — survives realloc. *)
      (match Util.Int_table.find_opt t.census_births addr with
      | Some birth ->
        Util.Int_table.remove t.census_births addr;
        Util.Int_table.replace t.census_births fresh birth
      | None -> ())
    | None -> ());
    fresh

let malloc_untrusted t size =
  match Allocators.Pkalloc.alloc_untrusted t.pkalloc size with
  | None -> raise Out_of_memory
  | Some addr -> addr

let ffi_call t f =
  if Config.gates_active t.config then Runtime.Gate.call_untrusted t.active.t_gate f else f ()

let callback t f =
  if Config.gates_active t.config then Runtime.Gate.callback_trusted t.active.t_gate f else f ()

let recorded_profile t =
  match t.profiler with
  | Some p -> Runtime.Profiler.profile p
  | None -> invalid_arg "Env.recorded_profile: not a profiling build"

let transitions t =
  List.fold_left (fun acc thread -> acc + Runtime.Gate.transitions thread.t_gate) 0 t.threads

let reset_counters t =
  List.iter Sim.Cpu.reset_cycles (Sim.Machine.cpus t.machine);
  List.iter (fun thread -> Runtime.Gate.reset_transitions thread.t_gate) t.threads

let cycles t = Sim.Machine.cycles t.machine

(* The paper's %MU counts how much of the safe language's heap traffic the
   instrumentation redirected to MU; U's own mallocs are not part of it. *)
let percent_untrusted_bytes t =
  let mt = float_of_int t.t_heap_bytes_mt in
  let mu = float_of_int t.t_heap_bytes_mu in
  if mt +. mu = 0.0 then 0.0 else 100.0 *. mu /. (mt +. mu)

let t_heap_bytes t = (t.t_heap_bytes_mt, t.t_heap_bytes_mu)

let sites_used t = t.sites_used
let sites_moved t = t.sites_moved

(* The sampling profiler's snapshot provider: the active thread's gate
   owns the compartment stack being executed right now. *)
let stack_frames t = Runtime.Gate.stack_frames t.active.t_gate

(* --- heap census --- *)

(* Tracking is opt-in: the live-object table and birth cycles are only
   maintained once this has been called, so a run that never asked for a
   census (or an audit) does no extra bookkeeping. *)
let track_census t =
  match t.census_meta with
  | Some _ -> ()
  | None -> t.census_meta <- Some (Runtime.Metadata.create ())

let census_metadata t = t.census_meta

(* The census snapshot provider: per-pool allocator statistics plus the
   per-site live view and object ages from the census metadata.  Pure
   OCaml reads over pkalloc / pool / metadata state — charges no
   simulated cycles, takes no checked accesses. *)
let census_snapshot t () =
  let pool_stats name stats pool =
    let live = Allocators.Alloc_stats.live_bytes stats in
    let pages = Allocators.Pool.pages_in_use pool in
    let frag =
      if pages = 0 then 0.0
      else 1.0 -. (float_of_int live /. float_of_int (pages * Vmm.Layout.page_size))
    in
    {
      Telemetry.Census.cp_pool = name;
      cp_live_bytes = live;
      cp_live_objects = Allocators.Alloc_stats.live_objects stats;
      cp_allocs = stats.Allocators.Alloc_stats.allocs;
      cp_frees = stats.Allocators.Alloc_stats.frees;
      cp_bytes_allocated = stats.Allocators.Alloc_stats.bytes_allocated;
      cp_bytes_freed = stats.Allocators.Alloc_stats.bytes_freed;
      cp_peak_live_bytes = Allocators.Alloc_stats.peak_live_bytes stats;
      cp_pages_in_use = pages;
      cp_high_water_pages = Allocators.Pool.high_water_pages pool;
      cp_fragmentation = frag;
    }
  in
  let pools =
    [
      pool_stats "mt"
        (Allocators.Pkalloc.trusted_stats t.pkalloc)
        (Allocators.Pkalloc.trusted_pool t.pkalloc);
      pool_stats "mu"
        (Allocators.Pkalloc.untrusted_stats t.pkalloc)
        (Allocators.Pkalloc.untrusted_pool t.pkalloc);
    ]
  in
  let now = Sim.Machine.cycles t.machine in
  let ages = Telemetry.Histogram.create () in
  let sites =
    match t.census_meta with
    | None -> []
    | Some meta ->
      let per_site : (string * string, int ref * int ref) Hashtbl.t = Hashtbl.create 32 in
      Runtime.Metadata.iter
        (fun r ->
          let site = Runtime.Alloc_id.to_string r.Runtime.Metadata.alloc_id in
          let pool =
            match Allocators.Pkalloc.pool_of_addr t.pkalloc r.Runtime.Metadata.addr with
            | Some `Untrusted -> "mu"
            | Some `Trusted | None -> "mt"
          in
          let bytes, objects =
            match Hashtbl.find_opt per_site (site, pool) with
            | Some cell -> cell
            | None ->
              let cell = (ref 0, ref 0) in
              Hashtbl.add per_site (site, pool) cell;
              cell
          in
          bytes := !bytes + r.Runtime.Metadata.size;
          incr objects;
          (* Births recorded before a counter reset postdate "now";
             Histogram.observe clamps the negative age to 0. *)
          let birth =
            match Util.Int_table.find_opt t.census_births r.Runtime.Metadata.addr with
            | Some b -> b
            | None -> now
          in
          Telemetry.Histogram.observe ages (now - birth))
        meta;
      Hashtbl.fold
        (fun (site, pool) (bytes, objects) acc ->
          {
            Telemetry.Census.cs_site = site;
            cs_pool = pool;
            cs_live_bytes = !bytes;
            cs_live_objects = !objects;
          }
          :: acc)
        per_site []
      |> List.sort (fun (a : Telemetry.Census.site_stats) b ->
             compare (a.Telemetry.Census.cs_site, a.cs_pool) (b.Telemetry.Census.cs_site, b.cs_pool))
  in
  { Telemetry.Census.at_cycle = now; pools; sites; ages }

(* The flight recorder's machine-context provider: everything a
   post-mortem wants that only the environment can see — simulated
   cycles, each hart's live PKRU, the active gate's nesting depth,
   the last fault delivered, and (when a mitigator tracks metadata) the
   allocation that fault landed in.  Pure reads; charges no cycles.
   Install with [Telemetry.Flight.set_context rec (Env.flight_context env)]. *)
let flight_context t () =
  let open Util.Json in
  let cpus =
    List.map
      (fun (cpu : Sim.Cpu.t) ->
        Obj [ ("id", Int cpu.Sim.Cpu.id); ("pkru", Int (Mpk.Pkru.to_int cpu.Sim.Cpu.pkru)) ])
      (Sim.Machine.cpus t.machine)
  in
  let gate_depth =
    List.length (Runtime.Comp_stack.to_list (Runtime.Gate.stack t.active.t_gate))
  in
  let last_fault =
    match Sim.Signals.last_fault t.machine.Sim.Machine.signals with
    | None -> []
    | Some (fault, hart) ->
      [
        ( "last_fault",
          Obj
            [
              ("kind", String (Vmm.Fault.to_string fault));
              ("addr", Int fault.Vmm.Fault.addr);
              ("hart", Int hart);
            ] );
      ]
  in
  let suspect =
    match (t.mitigator, Sim.Signals.last_fault t.machine.Sim.Machine.signals) with
    | Some m, Some (fault, _) -> (
      match Runtime.Metadata.lookup (Runtime.Mitigator.metadata m) fault.Vmm.Fault.addr with
      | None -> []
      | Some r ->
        [
          ( "suspect_alloc",
            Obj
              [
                ("alloc_id", String (Runtime.Alloc_id.to_string r.Runtime.Metadata.alloc_id));
                ("base", Int r.Runtime.Metadata.addr);
                ("size", Int r.Runtime.Metadata.size);
              ] );
        ])
    | _ -> []
  in
  (* When a census is live, the latest heap snapshot rides along so the
     post-mortem shows what the heap looked like near death. *)
  let census =
    match (ctx t).Telemetry.Ctx.census with
    | None -> []
    | Some c -> (
      match Telemetry.Census.latest c with
      | None -> []
      | Some snap -> [ ("census", Telemetry.Census.snapshot_json snap) ])
  in
  Obj
    ([
       ("cycles", Int (Sim.Machine.cycles t.machine));
       ("cpus", List cpus);
       ("gate_depth", Int gate_depth);
       ("gate_transitions", Int (transitions t));
       ("mode", String (Config.mode_to_string t.config.Config.mode));
     ]
    @ last_fault @ suspect @ census)
