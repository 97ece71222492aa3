type policy =
  | Abort
  | Emulate
  | Promote
  | Degrade

let policy_to_string = function
  | Abort -> "abort"
  | Emulate -> "emulate"
  | Promote -> "promote"
  | Degrade -> "degrade"

let policy_of_string = function
  | "abort" -> Some Abort
  | "emulate" -> Some Emulate
  | "promote" -> Some Promote
  | "degrade" -> Some Degrade
  | _ -> None

let all_policies = [ Abort; Emulate; Promote; Degrade ]

exception Degraded of Vmm.Fault.t

let () =
  Printexc.register_printer (function
    | Degraded fault ->
      Some (Printf.sprintf "Mitigator.Degraded: U denied MT access (%s)" (Vmm.Fault.to_string fault))
    | _ -> None)

type t = {
  machine : Sim.Machine.t;
  pkalloc : Allocators.Pkalloc.t;
  policy : policy;
  metadata : Metadata.t;
  saved_pkru : Mpk.Pkru.t Util.Int_table.t; (* per-hart single-step state *)
  outcomes : (string, int) Hashtbl.t;
  mutable tokens : int;
  mutable incidents : int;
}

let create ?(budget = 65536) ~policy ~pkalloc machine =
  if budget < 0 then invalid_arg "Mitigator.create: negative budget";
  {
    machine;
    pkalloc;
    policy;
    metadata = Metadata.create ();
    saved_pkru = Util.Int_table.create ~dummy:Mpk.Pkru.all_enabled 4;
    outcomes = Hashtbl.create 8;
    tokens = budget;
    incidents = 0;
  }

let policy t = t.policy
let incidents t = t.incidents

let outcome_counts t =
  Hashtbl.fold (fun outcome n acc -> (outcome, n) :: acc) t.outcomes [] |> List.sort compare

let promoted_sites t = Allocators.Pkalloc.quarantined_sites t.pkalloc

(* Token-bucket circuit breaker: Emulate/Promote spend one token per
   serviced incident; an empty bucket escalates the policy to Abort so a
   probing attacker cannot use leniency as an unlimited access oracle. *)
let take_token t =
  if t.tokens > 0 then begin
    t.tokens <- t.tokens - 1;
    true
  end
  else false

let tokens_left t = t.tokens

let record_incident t outcome =
  t.incidents <- t.incidents + 1;
  Hashtbl.replace t.outcomes outcome
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.outcomes outcome));
  match t.machine.Sim.Machine.ctx.Telemetry.Ctx.sink with
  | None -> ()
  | Some sink ->
    Telemetry.Sink.incr sink
      (Printf.sprintf "mitigation.%s.%s" (policy_to_string t.policy) outcome);
    (* Every adjudication also lands as an instant causal span, parented
       under whatever gate/phase span was open on the hart — so a flight
       dump shows which crossing the incident happened inside. *)
    Telemetry.Sink.span_instant sink
      ~ts:(Sim.Machine.cycles t.machine)
      ~cpu:t.machine.Sim.Machine.cpu.Sim.Cpu.id ~kind:Telemetry.Span.Incident
      (Printf.sprintf "mitigation:%s:%s" (policy_to_string t.policy) outcome)

(* Single-step the faulting access exactly as the profiler does (§4.3.2):
   permissive PKRU + trap flag; the SIGTRAP handler restores the view. *)
let single_step t =
  let cpu = t.machine.Sim.Machine.cpu in
  Util.Int_table.replace t.saved_pkru cpu.Sim.Cpu.id cpu.Sim.Cpu.pkru;
  Sim.Cpu.set_pkru cpu Mpk.Pkru.all_enabled;
  cpu.Sim.Cpu.trap_flag <- true;
  Sim.Signals.Retry

let on_segv t (fault : Vmm.Fault.t) =
  match fault.Vmm.Fault.kind with
  | Vmm.Fault.Pkey_violation key when Mpk.Pkey.equal key Mpk.Pkey.trusted -> (
    match t.policy with
    | Abort ->
      (* Paper-faithful: do not resolve, do not account — the run must be
         bit-identical (cycles, counters, traces) to one without the
         mitigator installed. *)
      Sim.Signals.Pass
    | Degrade ->
      record_incident t "degraded";
      Telemetry.Ctx.dump t.machine.Sim.Machine.ctx
        ~reason:"mitigator degraded: U denied MT access"
        ~details:
          ([
             ("policy", Util.Json.String "degrade");
             ("fault", Util.Json.String (Vmm.Fault.to_string fault));
             ("addr", Util.Json.Int fault.Vmm.Fault.addr);
             ("cycle", Util.Json.Int (Sim.Machine.cycles t.machine));
           ]
          @
          match Metadata.lookup t.metadata fault.Vmm.Fault.addr with
          | None -> []
          | Some r ->
            [
              ( "suspect_alloc",
                Util.Json.Obj
                  [
                    ("alloc_id", Util.Json.String (Alloc_id.to_string r.Metadata.alloc_id));
                    ("base", Util.Json.Int r.Metadata.addr);
                    ("size", Util.Json.Int r.Metadata.size);
                  ] );
            ])
        ();
      raise (Degraded fault)
    | (Emulate | Promote) as p -> (
      (* Only faults on live tracked heap objects are recoverable: an MPK
         violation on untracked trusted memory (the secret page, runtime
         internals) is never emulated, under any policy. *)
      match Metadata.lookup t.metadata fault.Vmm.Fault.addr with
      | None ->
        record_incident t "refused";
        Sim.Signals.Pass
      | Some record ->
        if not (take_token t) then begin
          record_incident t "escalated";
          Sim.Signals.Pass
        end
        else begin
          (match p with
          | Promote ->
            Allocators.Pkalloc.quarantine_site t.pkalloc
              (Alloc_id.to_string record.Metadata.alloc_id);
            record_incident t "promoted"
          | _ -> record_incident t "emulated");
          single_step t
        end))
  | Vmm.Fault.Pkey_violation _ | Vmm.Fault.Not_mapped | Vmm.Fault.Prot_violation ->
    Sim.Signals.Pass

let on_trap t () =
  let cpu = t.machine.Sim.Machine.cpu in
  match Util.Int_table.find_opt t.saved_pkru cpu.Sim.Cpu.id with
  | Some pkru ->
    Sim.Cpu.set_pkru cpu pkru;
    Util.Int_table.remove t.saved_pkru cpu.Sim.Cpu.id
  | None -> ()

let install t =
  Sim.Signals.register_segv t.machine.Sim.Machine.signals (on_segv t);
  (* Abort never single-steps, so it needs no SIGTRAP handler — and must
     not install one, to leave the machine exactly as a mitigator-less
     enforcement run would have it. *)
  if t.policy <> Abort then
    Sim.Signals.register_trap t.machine.Sim.Machine.signals (on_trap t)

let log_alloc t ~alloc_id ~addr ~size = Metadata.on_alloc t.metadata ~addr ~size ~alloc_id

let log_realloc t ~old_addr ~new_addr ~new_size =
  Metadata.on_realloc t.metadata ~old_addr ~new_addr ~new_size

let log_dealloc t ~addr = Metadata.on_dealloc t.metadata ~addr

let metadata t = t.metadata
