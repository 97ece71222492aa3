type t = {
  machine : Sim.Machine.t;
  ctx : Telemetry.Ctx.t; (* the machine's telemetry slots *)
  trusted_pkey : Mpk.Pkey.t;
  untrusted_view : Mpk.Pkru.t;
  stack : Comp_stack.t;
  mutable transitions : int;
  mutable span_ids : int list; (* causal span per stack frame, innermost first *)
  mutable resident : Mpk.Pkru.t;
      (* the view the last verified transition installed on this thread;
         what {!reverify} checks the live PKRU against on a fleet resume *)
  mutable pkru_corruptor : (Mpk.Pkru.t -> Mpk.Pkru.t) option;
      (* fault-injection hook (chaos harness only): when set, the value
         actually written by WRPKRU is the corruptor's output, while the
         gate still verifies against the intended target — modelling a
         Garmr-style attack where gate instructions are reused with a
         tampered EAX *)
}

let create ?(trusted_pkey = Mpk.Pkey.of_int 1) machine =
  {
    machine;
    ctx = machine.Sim.Machine.ctx;
    trusted_pkey;
    untrusted_view = Compartment.untrusted_view ~trusted_pkey;
    stack = Comp_stack.create ();
    transitions = 0;
    span_ids = [];
    resident = Mpk.Pkru.all_enabled;
    (* a fresh thread starts fully enabled, like its hart *)
    pkru_corruptor = None;
  }

let machine t = t.machine
let trusted_pkey t = t.trusted_pkey
let stack t = t.stack

let cpu t = t.machine.Sim.Machine.cpu

let current t = Compartment.of_pkru ~trusted_pkey:t.trusted_pkey (cpu t).Sim.Cpu.pkru

(* Preallocated events: one per gate side, so the enabled path allocates
   nothing per transition and the disabled path is a load and a branch. *)
let ev_enter_untrusted = Telemetry.Event.Gate_enter { target = Telemetry.Event.Untrusted }
let ev_exit_untrusted = Telemetry.Event.Gate_exit { target = Telemetry.Event.Untrusted }
let ev_enter_trusted = Telemetry.Event.Gate_enter { target = Telemetry.Event.Trusted }
let ev_exit_trusted = Telemetry.Event.Gate_exit { target = Telemetry.Event.Trusted }

let set_pkru_corruptor t corrupt = t.pkru_corruptor <- corrupt

let transition_name event =
  match event with
  | Telemetry.Event.Gate_enter { target } ->
    "enter:" ^ Telemetry.Event.compartment_to_string target
  | Telemetry.Event.Gate_exit { target } ->
    "exit:" ^ Telemetry.Event.compartment_to_string target
  | _ -> "?"

(* One gate side: bookkeeping + WRPKRU + the verifying RDPKRU.  A mismatch
   after the write means PKRU-modifying code was reused out of context, so
   the gate kills the process rather than continue with broken rights —
   after handing the flight recorder the intended-vs-observed values, with
   the residency span for the corrupted transition still open so the dump's
   causal chain names it. *)
let switch_to t event target =
  let cpu = cpu t in
  Sim.Cpu.charge cpu cpu.Sim.Cpu.cost.Sim.Cost.gate_bookkeeping;
  (match t.pkru_corruptor with
  | None -> Sim.Cpu.wrpkru cpu target
  | Some corrupt -> Sim.Cpu.wrpkru cpu (corrupt target));
  let now = Sim.Cpu.rdpkru cpu in
  if not (Mpk.Pkru.equal now target) then begin
    Telemetry.Ctx.dump t.ctx ~reason:"gate PKRU verification mismatch"
      ~details:
        [
          ("transition", Util.Json.String (transition_name event));
          ("intended_pkru", Util.Json.Int (Mpk.Pkru.to_int target));
          ("observed_pkru", Util.Json.Int (Mpk.Pkru.to_int now));
          ("cycle", Util.Json.Int (Sim.Machine.cycles t.machine));
          ("cpu", Util.Json.Int cpu.Sim.Cpu.id);
        ]
      ();
    raise
      (Sim.Signals.Process_killed
         (Printf.sprintf "call gate: PKRU value mismatch (hart %d)" cpu.Sim.Cpu.id))
  end;
  t.resident <- target;
  t.transitions <- t.transitions + 1;
  match t.ctx.Telemetry.Ctx.sink with
  | None -> ()
  | Some sink ->
    Telemetry.Sink.emit sink ~ts:(Sim.Machine.cycles t.machine) ~cpu:cpu.Sim.Cpu.id event

(* Residency spans bracket each compartment stay.  The span opens BEFORE
   the verifying write: if the gate's check kills the process, the span is
   still open and the flight dump's causal chain ends at the very
   transition that was corrupted.  Span ids ride a stack parallel to the
   PKRU stack so exits close exactly the frame they pop (and an exception
   unwinding several frames closes the abandoned inner spans too). *)
let span_open t name =
  match t.ctx.Telemetry.Ctx.sink with
  | None -> t.span_ids <- 0 :: t.span_ids
  | Some sink ->
    let id =
      Telemetry.Sink.span_enter sink
        ~ts:(Sim.Machine.cycles t.machine)
        ~cpu:(cpu t).Sim.Cpu.id ~kind:Telemetry.Span.Gate name
    in
    t.span_ids <- id :: t.span_ids

let span_close t =
  match t.span_ids with
  | [] -> ()
  | id :: rest -> (
    t.span_ids <- rest;
    match t.ctx.Telemetry.Ctx.sink with
    | None -> ()
    | Some sink ->
      if id <> 0 then
        Telemetry.Sink.span_exit sink
          ~ts:(Sim.Machine.cycles t.machine)
          ~cpu:(cpu t).Sim.Cpu.id ~id ())

let enter_untrusted t =
  Comp_stack.push t.stack (cpu t).Sim.Cpu.pkru;
  span_open t "gate:untrusted";
  switch_to t ev_enter_untrusted t.untrusted_view

let exit_untrusted t =
  let saved = Comp_stack.pop t.stack in
  switch_to t ev_exit_untrusted saved;
  span_close t

(* The reverse gate restores T's full view for the duration of a callback;
   it does not assume where it was called from. *)
let enter_trusted t =
  Comp_stack.push t.stack (cpu t).Sim.Cpu.pkru;
  span_open t "gate:trusted";
  switch_to t ev_enter_trusted Compartment.trusted_view

let exit_trusted t =
  let saved = Comp_stack.pop t.stack in
  switch_to t ev_exit_trusted saved;
  span_close t

let bracketed t ~enter ~exit ~latency f =
  match t.ctx.Telemetry.Ctx.sink with
  | None ->
    enter t;
    Fun.protect ~finally:(fun () -> exit t) f
  | Some sink ->
    let entered = Sim.Machine.cycles t.machine in
    enter t;
    Fun.protect
      ~finally:(fun () ->
        exit t;
        Telemetry.Sink.observe sink latency (Sim.Machine.cycles t.machine - entered))
      f

let call_untrusted t f =
  bracketed t ~enter:enter_untrusted ~exit:exit_untrusted ~latency:"gate_roundtrip_cycles" f

let callback_trusted t f =
  bracketed t ~enter:enter_trusted ~exit:exit_trusted ~latency:"callback_roundtrip_cycles" f

let transitions t = t.transitions
let reset_transitions t = t.transitions <- 0

(* Garmr defense: gate re-verification at a scheduling boundary.  A
   continuation restore puts a parked thread back on its hart with
   whatever PKRU the hart last held — if a sibling flipped it mid-slice
   (a concurrent WRPKRU race), the thread would resume with rights its
   gates never granted.  Re-checking the live value against the view the
   last verified transition installed catches exactly that, before the
   slice runs a single instruction.  The check is kernel/scheduler work:
   it charges no simulated cycles and emits no events on the pass path,
   so enabling it never perturbs benign traces. *)
let reverify ?attack t =
  let cpu = cpu t in
  let now = cpu.Sim.Cpu.pkru in
  if not (Mpk.Pkru.equal now t.resident) then begin
    Telemetry.Ctx.dump t.ctx ~reason:"resume gate: PKRU re-verification mismatch"
      ~details:
        ([
           ("expected_pkru", Util.Json.Int (Mpk.Pkru.to_int t.resident));
           ("observed_pkru", Util.Json.Int (Mpk.Pkru.to_int now));
           ("cycle", Util.Json.Int (Sim.Machine.cycles t.machine));
           ("hart", Util.Json.Int cpu.Sim.Cpu.id);
         ]
        @ match attack with None -> [] | Some a -> [ ("attack", Util.Json.String a) ])
      ();
    raise
      (Sim.Signals.Process_killed
         (Printf.sprintf "resume gate: PKRU value mismatch (hart %d)" cpu.Sim.Cpu.id))
  end

(* The sampling profiler's stack snapshot: saved PKRU values name the
   compartments entered on the way here (root first), the live PKRU the
   compartment currently running.  Mid-gate samples (after the stack push,
   before the WRPKRU retires) repeat the outgoing compartment as the leaf,
   which is the truthful reading: those cycles retire under the old view. *)
let stack_frames t =
  let name pkru =
    Compartment.to_string (Compartment.of_pkru ~trusted_pkey:t.trusted_pkey pkru)
  in
  List.rev_map name (Comp_stack.to_list t.stack) @ [ name (cpu t).Sim.Cpu.pkru ]
