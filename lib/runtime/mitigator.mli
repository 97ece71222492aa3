(** Enforcement-mode fault recovery (resilience tier).

    PKRU-Safe's enforcement build inherits dynamic profiling's blind spot:
    an allocation site never exercised during profiling stays in MT, and
    the first legitimate access from U in production is a fatal
    [SEGV_PKUERR] (§4.3/§6 — the gate "will otherwise exit the
    application").  This module is a SIGSEGV interposer, installed like
    {!Profiler.install}, that applies a configurable recovery policy to
    MPK faults raised by such unprofiled sites.

    Only faults whose address resolves in the mitigator's live-object
    {!Metadata} table are ever recovered; untracked trusted memory (the
    secret page, runtime internals) always takes the abort path whatever
    the policy, so leniency never weakens the isolation boundary itself.

    A token-bucket circuit breaker bounds how many incidents [Emulate] /
    [Promote] may service; once the budget is spent further incidents
    escalate to the [Abort] behaviour, so a probing attacker cannot turn
    leniency into an unlimited read/write oracle. *)

type policy =
  | Abort  (** paper-faithful default: the fault stays unresolved and the
               process dies exactly as a mitigator-less run would. *)
  | Emulate  (** single-step the access once (profiler-style permissive
                 PKRU + trap flag), log an incident, keep running. *)
  | Promote  (** [Emulate], plus quarantine the object's AllocId in
                 pkalloc's site-override table so *future* allocations
                 from that site are served from MU.  Live objects keep
                 their pool: provenance is preserved. *)
  | Degrade  (** deny U all further MT access: every incident raises
                 {!Degraded} so the request fails gracefully (gates
                 restore their balance on the way out). *)

val policy_to_string : policy -> string
val policy_of_string : string -> policy option
val all_policies : policy list

exception Degraded of Vmm.Fault.t
(** Raised out of the faulting access under the [Degrade] policy.  The
    gate brackets ([Gate.call_untrusted]) restore compartment state as the
    exception propagates, so callers can catch it and fail the single
    request. *)

type t

val create :
  ?budget:int ->
  policy:policy ->
  pkalloc:Allocators.Pkalloc.t ->
  Sim.Machine.t ->
  t
(** [budget] (default 65536 — roomy enough that a legitimate workload
    hammering one unprofiled buffer survives, small enough to starve a
    probing loop) is the circuit-breaker token count; each
    serviced [Emulate]/[Promote] incident spends one token and an empty
    bucket escalates to [Abort].
    @raise Invalid_argument on negative [budget]. *)

val install : t -> unit
(** Registers the SIGSEGV interposer (and, except under [Abort], the
    SIGTRAP handler used for single-stepping).  Call late, after the
    application's own handlers, like the profiler. *)

val policy : t -> policy

(* Compiler-inserted runtime callbacks, shared shape with {!Profiler}:
   enforcement builds keep the live-object table so the mitigator can
   attribute faults to allocation sites. *)

val log_alloc : t -> alloc_id:Alloc_id.t -> addr:int -> size:int -> unit
val log_realloc : t -> old_addr:int -> new_addr:int -> new_size:int -> unit
val log_dealloc : t -> addr:int -> unit

val metadata : t -> Metadata.t

val incidents : t -> int
(** Total MPK-violation incidents this mitigator adjudicated (all
    outcomes; always 0 under [Abort], which does no accounting so that
    aborting runs stay bit-identical to mitigator-less ones). *)

val outcome_counts : t -> (string * int) list
(** Sorted [(outcome, count)] pairs; outcomes are ["emulated"],
    ["promoted"], ["degraded"], ["refused"] (untracked address) and
    ["escalated"] (circuit breaker open).  Mirrored into the telemetry
    sink as [mitigation.<policy>.<outcome>] counters and exported as
    [pkru_mitigation_total{policy,outcome}]. *)

val tokens_left : t -> int

val promoted_sites : t -> string list
(** Sites quarantined so far (sorted) — pkalloc's site-override table. *)
