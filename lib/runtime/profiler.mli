(** The dynamic-analysis runtime (paper §4.3, Figure 2).

    During a profiling build all heap data is allocated in MT, so every
    access from U to data that must be shared raises an MPK violation.
    This module installs the SIGSEGV interposer that services those
    violations: it looks up the faulting address in the live-object
    {!Metadata} table, records the object's AllocId into the {!Profile},
    then single-steps the faulting instruction — temporarily writing a
    permissive PKRU and setting the trap flag so the SIGTRAP handler can
    restore the restricted view immediately after the access completes
    (§4.3.2).  Every other memory access executed while in U is therefore
    still checked, which is what makes the profile complete.

    Faults that are not MPK violations (or concern a different key) are
    passed to previously registered handlers, mirroring how the prototype
    chains Servo's own SIGSEGV handlers. *)

type t

val create : Sim.Machine.t -> t

val install : t -> unit
(** Registers the SIGSEGV and SIGTRAP handlers.  Call late, after the
    application's own handlers (the paper registers "as late as
    possible"). *)

(* Compiler-inserted runtime callbacks (Fig. 2 "log_alloc"). *)

val log_alloc : t -> alloc_id:Alloc_id.t -> addr:int -> size:int -> unit
val log_realloc : t -> old_addr:int -> new_addr:int -> new_size:int -> unit
val log_dealloc : t -> addr:int -> unit

val profile : t -> Profile.t

val faults_serviced : t -> int
(** MPK violations this profiler resolved by single-stepping. *)

val untracked_faults : t -> int
(** MPK violations whose address matched no live tracked object (e.g.
    non-heap trusted data); they are single-stepped but recorded
    nowhere. *)
