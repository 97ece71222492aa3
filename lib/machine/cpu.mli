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
  mutable wrpkru_retired : int;
  mutable pkru_epoch : int;
      (** bumped by every PKRU write through {!set_pkru} / {!wrpkru};
          part of the software TLB's invalidation protocol *)
  retired_acc : int ref;
      (** machine-wide retired-cycle accumulator shared by all harts of
          one {!Machine}, kept current by {!charge} / {!reset_cycles} *)
  tlb : Tlb.t;  (** this hart's software TLB (architecturally invisible) *)
  ctx : Telemetry.Ctx.t;  (** the machine's telemetry slots, shared by every hart *)
}

val create :
  ?cost:Cost.t -> ?id:int -> ?retired:int ref -> ?ctx:Telemetry.Ctx.t -> unit -> t
(** Fresh CPU with PKRU fully enabled (kernel default for a new thread).
    [retired] and [ctx] share the machine-wide cycle accumulator and
    telemetry slots; fresh ones are used when absent (standalone CPUs in
    tests). *)

val charge : t -> int -> unit
(** [charge cpu n] retires [n] cycles of straight-line work, grows the
    shared accumulator and ticks the context's {!Telemetry.Sampler}
    (which charges nothing back, keeping sampled and unsampled cycle
    counts identical). *)

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
(** Zeroes the counter, deducting the same amount from the shared
    accumulator (used between benchmark phases). *)
