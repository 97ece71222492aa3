type t = {
  machine : Sim.Machine.t;
  trusted_pkey : Mpk.Pkey.t;
  metadata : Metadata.t;
  profile : Profile.t;
  saved_pkru : Mpk.Pkru.t Util.Int_table.t; (* per-hart single-step state *)
  step_started : int Util.Int_table.t; (* per-hart cycles at fault entry *)
  mutable faults_serviced : int;
  mutable untracked_faults : int;
}

let create ?(trusted_pkey = Mpk.Pkey.of_int 1) machine =
  {
    machine;
    trusted_pkey;
    metadata = Metadata.create ();
    profile = Profile.create ();
    saved_pkru = Util.Int_table.create ~dummy:Mpk.Pkru.all_enabled 4;
    step_started = Util.Int_table.create ~dummy:0 4;
    faults_serviced = 0;
    untracked_faults = 0;
  }

let sink t = t.machine.Sim.Machine.ctx.Telemetry.Ctx.sink

let on_segv t (fault : Vmm.Fault.t) =
  match fault.Vmm.Fault.kind with
  | Vmm.Fault.Pkey_violation key when Mpk.Pkey.equal key t.trusted_pkey ->
    (* Fig. 2 steps 4-5: look up the faulting object's metadata and record
       its AllocId, then single-step the access with a temporarily
       permissive PKRU. *)
    (match Metadata.lookup t.metadata fault.Vmm.Fault.addr with
    | Some record -> Profile.record t.profile record.Metadata.alloc_id
    | None ->
      t.untracked_faults <- t.untracked_faults + 1;
      (match sink t with
      | None -> ()
      | Some sink -> Telemetry.Sink.incr sink "profiler.untracked_faults"));
    t.faults_serviced <- t.faults_serviced + 1;
    let cpu = t.machine.Sim.Machine.cpu in
    Util.Int_table.replace t.saved_pkru cpu.Sim.Cpu.id cpu.Sim.Cpu.pkru;
    if sink t <> None then
      Util.Int_table.replace t.step_started cpu.Sim.Cpu.id (Sim.Machine.cycles t.machine);
    Sim.Cpu.set_pkru cpu Mpk.Pkru.all_enabled;
    cpu.Sim.Cpu.trap_flag <- true;
    Sim.Signals.Retry
  | Vmm.Fault.Pkey_violation _ | Vmm.Fault.Not_mapped | Vmm.Fault.Prot_violation ->
    (* "Faults unrelated to an MPK violation behave normally": defer to the
       previously registered handler. *)
    Sim.Signals.Pass

let on_trap t () =
  let cpu = t.machine.Sim.Machine.cpu in
  match Util.Int_table.find_opt t.saved_pkru cpu.Sim.Cpu.id with
  | Some pkru ->
    Sim.Cpu.set_pkru cpu pkru;
    Util.Int_table.remove t.saved_pkru cpu.Sim.Cpu.id;
    (* Fault-to-trap round trip: the full single-step servicing of one
       recorded access (dispatch, permissive re-execution, #DB restore). *)
    (match (sink t, Util.Int_table.find_opt t.step_started cpu.Sim.Cpu.id) with
    | Some sink, Some started ->
      Util.Int_table.remove t.step_started cpu.Sim.Cpu.id;
      Telemetry.Sink.observe sink "single_step_cycles" (Sim.Machine.cycles t.machine - started)
    | _ -> Util.Int_table.remove t.step_started cpu.Sim.Cpu.id)
  | None -> ()

let install t =
  Sim.Signals.register_segv t.machine.Sim.Machine.signals (on_segv t);
  Sim.Signals.register_trap t.machine.Sim.Machine.signals (on_trap t)

let log_alloc t ~alloc_id ~addr ~size = Metadata.on_alloc t.metadata ~addr ~size ~alloc_id

let log_realloc t ~old_addr ~new_addr ~new_size =
  Metadata.on_realloc t.metadata ~old_addr ~new_addr ~new_size

let log_dealloc t ~addr = Metadata.on_dealloc t.metadata ~addr

let profile t = t.profile
let metadata t = t.metadata
let faults_serviced t = t.faults_serviced
let untracked_faults t = t.untracked_faults
