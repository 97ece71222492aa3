(** Build configurations.

    These mirror the paper's evaluation configurations (§5.3):
    {ul
    {- [Base]: unmodified application — the fast allocator everywhere, no
       compartment boundaries;}
    {- [Alloc]: pkalloc substituted as the global allocator (profile-driven
       MT/MU split) but no call gates — isolates allocator overhead;}
    {- [Profiling]: the instrumented profile build — everything in MT,
       gates active, provenance tracking and the permissive fault handler
       installed;}
    {- [Mpk]: the final enforcement build — pkalloc split plus call gates;
       an unprofiled cross-compartment access crashes the program.}} *)

type mode =
  | Base
  | Alloc
  | Profiling
  | Mpk

type defenses = {
  sigframe_scrub : bool;
      (** Garmr defense: sigreturn validates the signal frame's saved
          PKRU; a forged restore is refused fail-stop instead of being
          installed ({!Sim.Signals.set_sigframe_scrub}). *)
  syscall_filter : bool;
      (** Garmr defense: the machine's kernel interface refuses
          pkey/page-table mutations ([sys_pkey_mprotect] & co) issued
          from U residency ({!Sim.Machine.set_syscall_filter}). *)
  gate_reverify : bool;
      (** Garmr defense: the fleet scheduler re-checks the hart's live
          PKRU against the gate's resident view before resuming a parked
          continuation ({!Runtime.Gate.reverify}). *)
}
(** Opt-in hardened-gate policies countering the Garmr attack classes.
    All default off; each is architecturally invisible when disabled
    (the enforcement paths act only on attack traffic, never charging
    cycles or emitting events on benign runs). *)

val no_defenses : defenses
(** All policies off — the pre-hardening behaviour, and the default. *)

val all_defenses : defenses
(** Every policy on (what a hardened deployment would run). *)

type t = {
  mode : mode;
  mu_backend : Allocators.Pkalloc.mu_backend;
  cost : Sim.Cost.t;
  tlb : bool;
      (** enable the machine's software TLB ({!make} turns it on; a
          TLB-off run is the record with [tlb = false]).  Architecturally
          invisible either way — only host wall-clock differs. *)
  mitigation : Runtime.Mitigator.policy option;
      (** fault-recovery policy for the enforcement build; [None] (the
          default) installs no mitigator.  Only meaningful under [Mpk] —
          other modes ignore it ([Profiling] already resolves every MPK
          fault; [Base]/[Alloc] never raise one). *)
  defenses : defenses;  (** Garmr hardened-gate policies (default: none). *)
}

val make :
  ?mu_backend:Allocators.Pkalloc.mu_backend ->
  ?cost:Sim.Cost.t ->
  ?mitigation:Runtime.Mitigator.policy ->
  ?defenses:defenses ->
  mode ->
  t

val mode_to_string : mode -> string

val gates_active : t -> bool
(** Whether this configuration inserts call gates at the boundary. *)

val split_heap : t -> bool
(** Whether allocation sites named by the profile draw from MU. *)
