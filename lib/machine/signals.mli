(** The signal-delivery model (SIGSEGV and SIGTRAP).

    Mirrors how the paper's profiler coexists with an application's own
    fault handlers: handlers are registered in order (Servo registers many,
    the profiler registers itself "as late as possible"); on a fault the
    most recently registered handler runs first and may pass the fault to
    the handler that preceded it, exactly like keeping a reference to a
    previously registered sigaction.

    A SIGSEGV handler returns what the kernel should do next:
    {ul
    {- [Retry]: return from the handler and re-execute the faulting access
       (the handler has typically fixed up PKRU and set the trap flag);}
    {- [Pass]: defer to the previously registered handler;}
    {- [Kill]: terminate the process with a message.}} *)

type segv_action =
  | Retry
  | Pass
  | Kill of string

type segv_handler = Vmm.Fault.t -> segv_action
type trap_handler = unit -> unit

exception Process_killed of string
(** The simulated process terminated abnormally (default SIGSEGV
    disposition, a handler returning [Kill], or a call-gate PKRU-value
    mismatch). *)

type t

val create : Telemetry.Ctx.t -> t
(** An empty handler chain reporting into the machine's telemetry slots. *)

val register_segv : t -> segv_handler -> unit
(** Pushes a handler; it becomes the first to see subsequent faults. *)

val register_trap : t -> trap_handler -> unit
(** Installs the SIGTRAP handler (single handler; latest wins). *)

val segv_handler_count : t -> int

val unregister_segv : t -> bool
(** Pops the most recently registered SIGSEGV handler (the one that sees
    faults first).  Returns [false] when the chain is already empty.
    Models an application (or fault injector) restoring a previous
    sigaction without keeping the interposer in the chain. *)

val reorder_segv : t -> (segv_handler list -> segv_handler list) -> unit
(** Rewrites the handler chain (head = first to see faults).  Used by the
    chaos harness to model handler-registration races. *)

val last_fault : t -> (Vmm.Fault.t * int) option
(** The most recent fault delivered via {!deliver_segv}, if any, paired
    with the id of the hart it was delivered on, so concurrent-attack
    post-mortems attribute the fault to the right CPU. *)

val tamper_sigframe : t -> Mpk.Pkru.t option -> unit
(** Garmr attack model: scribble a forged PKRU over the saved-PKRU field
    of pending signal frames ([Some pkru]), or stop tampering ([None]).
    The signal frame lives on the (attacker-writable) user stack, so a
    compromised U can rewrite it between delivery and sigreturn; the
    forged value is installed on the delivering hart when a handler
    returns [Retry] — unless {!set_sigframe_scrub} is on. *)

val set_sigframe_scrub : t -> bool -> unit
(** Garmr defense: when on, sigreturn validates the saved PKRU against
    the frame written at delivery; a forged restore dumps the flight
    recorder and kills the process instead of installing the value.
    Off by default — the sigreturn path is a no-op for untampered
    frames either way, so the defense is architecturally invisible. *)

val sigframe_scrub : t -> bool
val sigreturn_forged : t -> int
(** Forged PKRU restores that took effect (scrubbing off). *)

val sigreturn_blocked : t -> int
(** Forged PKRU restores refused by the scrubber (scrubbing on). *)

val deliver_segv : t -> cpu:Cpu.t -> Vmm.Fault.t -> unit
(** Walks the handler chain.  Returns normally iff some handler said
    [Retry] (after which sigreturn reinstates the saved frame — see
    {!tamper_sigframe}).  [cpu] names the faulting hart for post-mortem
    attribution and is the target of any sigreturn PKRU restore.  A
    delivery allocates nothing.
    @raise Vmm.Fault.Unhandled when no handler resolves the fault
    @raise Process_killed when a handler demands termination *)

val deliver_trap : t -> unit
(** Invokes the SIGTRAP handler; a trap with no handler kills the process
    (default SIGTRAP disposition). *)
