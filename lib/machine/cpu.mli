(** Per-hart execution state: PKRU register, trap flag (single-stepping)
    and the retired-cycle counter.

    PKRU lives in a register, never in attacker-writable memory, matching
    the threat model's assumption that adversaries cannot manipulate it
    directly. *)

type t = {
  id : int; (** hart id; 0 is the boot thread *)
  cost : Cost.t;
  mutable pkru : Mpk.Pkru.t;
  mutable trap_flag : bool;
  mutable cycles : int;
      (** this hart's clock; written only by {!charge} (and its split
          copy in [Machine]'s width entries) and {!reset_cycles} *)
  mutable wrpkru_retired : int;
  mutable pkru_epoch : int;
      (** bumped by every PKRU write through {!set_pkru} / {!wrpkru};
          part of the software TLB's invalidation protocol *)
  tlb : Tlb.t;  (** this hart's software TLB (architecturally invisible) *)
  ctx : Telemetry.Ctx.t;  (** the machine's telemetry slots, shared by every hart *)
}

val create : ?cost:Cost.t -> ?id:int -> ?ctx:Telemetry.Ctx.t -> unit -> t
(** Fresh CPU with PKRU fully enabled (kernel default for a new thread).
    [ctx] shares the machine's telemetry slots; a fresh one is used when
    absent (standalone CPUs in tests). *)

val charge : t -> int -> unit
(** [charge cpu n] retires [n] cycles of straight-line work: it adds [n]
    to {!field-cycles} and, when the context is
    {!Telemetry.Ctx.field-hooked}, calls {!tick_hooks}.  Inlined into
    its callers; the hooks stay out of line. *)

val tick_hooks : t -> int -> unit
(** The armed slow path of {!charge}: ticks the context's
    {!Telemetry.Sampler} and {!Telemetry.Census} with [n] cycles.  Both
    charge nothing back, keeping hooked and plain cycle counts
    identical. *)

val set_pkru : t -> Mpk.Pkru.t -> unit
(** Replaces the register and bumps {!field-pkru_epoch}, staling every
    cached permission mask in this hart's TLB.  Charges nothing — use
    {!wrpkru} to model the instruction.  All intentional PKRU updates
    (gates, signal-handler swaps) must come through here or {!wrpkru}. *)

val wrpkru : t -> Mpk.Pkru.t -> unit
(** Executes WRPKRU: charges its cost and replaces the register (through
    {!set_pkru}, so the PKRU epoch advances). *)

val rdpkru : t -> Mpk.Pkru.t
(** Executes RDPKRU: charges its cost and reads the register. *)

val cycles : t -> int
(** Total cycles retired so far. *)

val reset_cycles : t -> unit
(** Zeroes the counter (used between benchmark phases). *)
