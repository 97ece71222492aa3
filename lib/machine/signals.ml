type segv_action =
  | Retry
  | Pass
  | Kill of string

type segv_handler = Vmm.Fault.t -> segv_action
type trap_handler = unit -> unit

exception Process_killed of string

type t = {
  mutable segv_chain : segv_handler list; (* head = most recently registered *)
  mutable trap : trap_handler option;
  mutable last_fault : Vmm.Fault.t; (* most recent SIGSEGV delivered; [no_fault] = none *)
  mutable last_hart : int; (* the hart it was delivered on *)
  (* Signal-frame model (Garmr).  On delivery the kernel saves the
     interrupted context — including PKRU — in a frame on the user stack,
     and sigreturn restores it.  The frame is writable by the interrupted
     (possibly untrusted) code, so an attacker can scribble a permissive
     PKRU over the saved field and have "the kernel" install it on
     handler return.  [sigframe_tamper] models that scribble;
     [scrub_sigframes] is the defense: the kernel scrubs/validates the
     PKRU field and refuses a forged restore.  Both default off, so the
     sigreturn path is a no-op in ordinary runs. *)
  mutable sigframe_tamper : Mpk.Pkru.t option;
  mutable scrub_sigframes : bool;
  mutable sigreturn_forged : int; (* forged restores that took effect *)
  mutable sigreturn_blocked : int; (* forged restores refused by the scrubber *)
  ctx : Telemetry.Ctx.t; (* the machine's telemetry slots *)
}

(* [last_fault]'s value before any delivery: fault records are stored as
   delivered, so a delivery allocates no option or pair. *)
let no_fault = { Vmm.Fault.addr = -1; access = Vmm.Fault.Read; kind = Vmm.Fault.Not_mapped }

let create ctx =
  {
    segv_chain = [];
    trap = None;
    last_fault = no_fault;
    last_hart = 0;
    sigframe_tamper = None;
    scrub_sigframes = false;
    sigreturn_forged = 0;
    sigreturn_blocked = 0;
    ctx;
  }

let register_segv t handler = t.segv_chain <- handler :: t.segv_chain

let register_trap t handler = t.trap <- Some handler

let segv_handler_count t = List.length t.segv_chain

let unregister_segv t =
  match t.segv_chain with
  | [] -> false
  | _ :: rest ->
    t.segv_chain <- rest;
    true

let reorder_segv t f = t.segv_chain <- f t.segv_chain

let last_fault t = if t.last_fault == no_fault then None else Some (t.last_fault, t.last_hart)

let tamper_sigframe t forged = t.sigframe_tamper <- forged
let set_sigframe_scrub t on = t.scrub_sigframes <- on
let sigframe_scrub t = t.scrub_sigframes
let sigreturn_forged t = t.sigreturn_forged
let sigreturn_blocked t = t.sigreturn_blocked

let note t delivery =
  match t.ctx.Telemetry.Ctx.sink with
  | None -> ()
  | Some sink -> Telemetry.Sink.incr sink delivery

(* Death paths hand the flight recorder a post-mortem before raising.
   The dump is a no-op when no recorder is attached and touches neither the
   sink's counters nor simulated cycles, so enforcement runs stay
   bit-identical. *)
let fault_details (cpu : Cpu.t) fault =
  [
    ("fault", Util.Json.String (Vmm.Fault.to_string fault));
    ("addr", Util.Json.Int fault.Vmm.Fault.addr);
    ("hart", Util.Json.Int cpu.Cpu.id);
  ]

(* Handler return = sigreturn(2): the kernel reinstates the saved frame.
   Untampered frames restore exactly the context the handler chain left
   behind (handlers edit the frame in place, as the paper's profiler
   does), so nothing happens here.  A tampered frame either installs the
   forged PKRU on the delivering hart (no scrubbing — the Garmr attack)
   or is refused fail-stop (scrubbing on — the Garmr defense). *)
let sigreturn t cpu fault =
  match t.sigframe_tamper with
  | None -> ()
  | Some forged ->
    if t.scrub_sigframes then begin
      t.sigreturn_blocked <- t.sigreturn_blocked + 1;
      note t "signals.sigreturn_blocked";
      Telemetry.Ctx.dump t.ctx ~reason:"sigreturn PKRU forgery blocked (scrubbed signal frame)"
        ~details:
          (("forged_pkru", Util.Json.Int (Mpk.Pkru.to_int forged)) :: fault_details cpu fault)
        ();
      raise
        (Process_killed
           (Printf.sprintf "sigreturn: forged PKRU 0x%08x in signal frame (hart %d)"
              (Mpk.Pkru.to_int forged) cpu.Cpu.id))
    end
    else begin
      t.sigreturn_forged <- t.sigreturn_forged + 1;
      note t "signals.sigreturn_forged";
      Cpu.set_pkru cpu forged
    end

(* The chain walk is a top-level loop, so a delivery allocates no
   closure. *)
let rec walk_chain t cpu fault = function
  | [] ->
    note t "signals.unhandled";
    Telemetry.Ctx.dump t.ctx ~reason:"unhandled SIGSEGV" ~details:(fault_details cpu fault) ();
    raise (Vmm.Fault.Unhandled fault)
  | handler :: rest ->
    (match handler fault with
    | Retry -> sigreturn t cpu fault
    | Pass -> walk_chain t cpu fault rest
    | Kill msg ->
      note t "signals.killed";
      Telemetry.Ctx.dump t.ctx ~reason:"SIGSEGV handler killed the process"
        ~details:(("message", Util.Json.String msg) :: fault_details cpu fault)
        ();
      raise (Process_killed msg))

let deliver_segv t ~cpu fault =
  t.last_fault <- fault;
  t.last_hart <- cpu.Cpu.id;
  note t "signals.segv_delivered";
  walk_chain t cpu fault t.segv_chain

let deliver_trap t =
  note t "signals.trap_delivered";
  match t.trap with
  | Some handler -> handler ()
  | None ->
    (* A trap with no handler is fatal; the message carries enough context
       (how deep the SIGSEGV chain was, and which fault set the trap flag
       on which hart) to diagnose which interposer armed single-stepping
       and then lost its trap handler. *)
    let last =
      match last_fault t with
      | Some (fault, hart) -> Printf.sprintf "%s (hart %d)" (Vmm.Fault.to_string fault) hart
      | None -> "none"
    in
    Telemetry.Ctx.dump t.ctx ~reason:"SIGTRAP with no handler installed"
      ~details:
        [
          ("segv_chain_depth", Util.Json.Int (List.length t.segv_chain));
          ("last_fault", Util.Json.String last);
        ]
      ();
    raise
      (Process_killed
         (Printf.sprintf
            "SIGTRAP with no handler installed (segv handler chain depth %d, last fault: %s)"
            (List.length t.segv_chain) last))

let () =
  Printexc.register_printer (function
    | Process_killed msg -> Some ("Signals.Process_killed: " ^ msg)
    | _ -> None)
