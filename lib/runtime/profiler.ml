type t = {
  machine : Sim.Machine.t;
  metadata : Metadata.t;
  profile : Profile.t;
  mutable saved_pkru : int array; (* by hart id: single-step state; -1 = none *)
  mutable step_started : int array; (* by hart id: cycles at fault entry; -1 = none *)
  mutable faults_serviced : int;
  mutable untracked_faults : int;
}

let create machine =
  {
    machine;
    metadata = Metadata.create ();
    profile = Profile.create ();
    saved_pkru = Array.make 4 (-1);
    step_started = Array.make 4 (-1);
    faults_serviced = 0;
    untracked_faults = 0;
  }

let sink t = t.machine.Sim.Machine.ctx.Telemetry.Ctx.sink

let[@inline never] grow_harts t id =
  let grow a = Array.append a (Array.make (id + 1) (-1)) in
  t.saved_pkru <- grow t.saved_pkru;
  t.step_started <- grow t.step_started

let on_segv t (fault : Vmm.Fault.t) =
  match fault.Vmm.Fault.kind with
  | Vmm.Fault.Pkey_violation key when Mpk.Pkey.equal key Mpk.Pkey.trusted ->
    (* Fig. 2 steps 4-5: look up the faulting object's metadata and record
       its AllocId, then single-step the access with a temporarily
       permissive PKRU. *)
    let record = Metadata.find t.metadata fault.Vmm.Fault.addr in
    if record != Metadata.missing then Profile.record t.profile record.Metadata.alloc_id
    else begin
      t.untracked_faults <- t.untracked_faults + 1;
      match sink t with
      | None -> ()
      | Some sink -> Telemetry.Sink.incr sink "profiler.untracked_faults"
    end;
    t.faults_serviced <- t.faults_serviced + 1;
    let cpu = t.machine.Sim.Machine.cpu in
    let hart = cpu.Sim.Cpu.id in
    if hart >= Array.length t.saved_pkru then grow_harts t hart;
    t.saved_pkru.(hart) <- Mpk.Pkru.to_int cpu.Sim.Cpu.pkru;
    (match sink t with
    | None -> ()
    | Some _ -> t.step_started.(hart) <- Sim.Machine.cycles t.machine);
    Sim.Cpu.set_pkru cpu Mpk.Pkru.all_enabled;
    cpu.Sim.Cpu.trap_flag <- true;
    Sim.Signals.Retry
  | Vmm.Fault.Pkey_violation _ | Vmm.Fault.Not_mapped | Vmm.Fault.Prot_violation ->
    (* "Faults unrelated to an MPK violation behave normally": defer to the
       previously registered handler. *)
    Sim.Signals.Pass

let on_trap t () =
  let cpu = t.machine.Sim.Machine.cpu in
  let hart = cpu.Sim.Cpu.id in
  let pkru = if hart < Array.length t.saved_pkru then t.saved_pkru.(hart) else -1 in
  if pkru >= 0 then begin
    Sim.Cpu.set_pkru cpu (Mpk.Pkru.of_int pkru);
    t.saved_pkru.(hart) <- -1;
    (* Fault-to-trap round trip: the full single-step servicing of one
       recorded access (dispatch, permissive re-execution, #DB restore). *)
    let started = t.step_started.(hart) in
    t.step_started.(hart) <- -1;
    match sink t with
    | Some sink when started >= 0 ->
      Telemetry.Sink.observe sink "single_step_cycles" (Sim.Machine.cycles t.machine - started)
    | _ -> ()
  end

let install t =
  Sim.Signals.register_segv t.machine.Sim.Machine.signals (on_segv t);
  Sim.Signals.register_trap t.machine.Sim.Machine.signals (on_trap t)

let log_alloc t ~alloc_id ~addr ~size = Metadata.on_alloc t.metadata ~addr ~size ~alloc_id

let log_realloc t ~old_addr ~new_addr ~new_size =
  Metadata.on_realloc t.metadata ~old_addr ~new_addr ~new_size

let log_dealloc t ~addr = Metadata.on_dealloc t.metadata ~addr

let profile t = t.profile
let faults_serviced t = t.faults_serviced
let untracked_faults t = t.untracked_faults
