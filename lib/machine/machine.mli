(** The simulated machine: page table + CPU + signal chain, with the
    checked memory-access path.

    Every load and store made by simulated code goes through {!read_u8}
    .. {!write_u64} (or the block-copy helpers), which walk the page table,
    apply page protections and the MPK check against the current PKRU
    value, charge cycles, and deliver faults through the signal chain —
    re-executing the access when a handler returns [Retry] and honouring
    the trap flag for single-stepped profiling.

    A per-hart software {!Tlb} caches resolved pages with precomputed
    permission masks, so page-hot access sequences skip the page-table
    walk and PKRU decode.  The TLB is architecturally invisible (no
    cycles, no events — see {!Tlb}); faults, single-stepping and demand
    paging always take the slow path, so simulated cycle counts and
    telemetry traces are bit-identical whether it is on or off.

    The [priv_*] accessors bypass checks and charging.  They model two
    things that are outside the simulated instruction stream: the kernel /
    fault handler inspecting memory on the process's behalf, and test
    setup. *)

type t = {
  page_table : Vmm.Page_table.t;
  mutable cpu : Cpu.t; (** the hart currently executing *)
  mutable cpus_rev : Cpu.t list;
      (** every hart, most recently spawned first — use {!cpus} for
          boot-thread-first order *)
  mutable ncpus : int;
  signals : Signals.t;
  pkeys : Vmm.Pkeys.t; (** the kernel's pkey_alloc/pkey_free state *)
  tlb_enabled : bool;
  mutable syscall_filter : bool;
      (** Garmr syscall filter: when set, the [sys_*] kernel-interface
          entry points refuse pkey/page-table mutations issued from a
          hart resident in U.  Clear (default) is fully permissive. *)
  ctx : Telemetry.Ctx.t;
      (** this machine's telemetry slots, shared with every hart and the
          signal chain; every instrumentation site on the machine reads
          it *)
}

val create : ?cost:Cost.t -> ?tlb:bool -> unit -> t
(** [tlb] (default [true]) enables the software TLB on every hart; pass
    [false] to force every access down the slow resolve path (used by the
    equivalence test and the TLB microbench baseline). *)

(* {2 Threads}

   Simulated threads are cooperative: {!spawn_cpu} registers a new hart
   with its own PKRU (fully enabled, like a fresh kernel thread) and
   {!run_on} switches which hart executes a block of code.  Memory, the
   page table and signal dispositions are process-wide; PKRU, the trap
   flag and cycle counts are per-hart, as on real hardware. *)

val spawn_cpu : t -> Cpu.t
(** Creates and registers a new hart (does not switch to it).  O(1). *)

val cpus : t -> Cpu.t list
(** Every hart, boot thread first. *)

val run_on : t -> Cpu.t -> (unit -> 'a) -> 'a
(** [run_on t cpu f] executes [f] with [cpu] as the current hart, restoring
    the previous hart afterwards (exception-safe). *)

val switch_to_cpu : t -> Cpu.t -> Cpu.t
(** Non-bracketed hart switch, returning the previously current hart.
    For effect-based schedulers whose slices cross [Effect.perform]
    boundaries (a [Fun.protect] bracket cannot): the caller restores the
    returned hart itself.  Emits the same thread-switch telemetry as
    {!run_on} (none when switching to the already-current hart) and
    charges no simulated cycles. *)

(* {2 Checked accesses (simulated instructions)}

   The u8, u32, u56 and u64 accesses have their own entries: on a TLB
   machine an access that fits in one page probes the TLB in line.  u16,
   page-straddling accesses and every access of a TLB-off machine take
   the generic path.  Both charge, check, fault and trap alike. *)

val read_u8 : t -> int -> int
val read_u16 : t -> int -> int
val read_u32 : t -> int -> int
val read_u64 : t -> int -> int
val write_u8 : t -> int -> int -> unit
val write_u16 : t -> int -> int -> unit
val write_u32 : t -> int -> int -> unit
val write_u64 : t -> int -> int -> unit

val read_u56 : t -> int -> int
val write_u56 : t -> int -> int -> unit
(** The low 7 bytes of a 64-bit word, in one checked access (a 56-bit
    value).  With {!read_u8}/{!write_u8} of the eighth byte, a 64-bit
    pattern moves as two accesses without passing through a float. *)

val read_bytes : t -> int -> int -> Bytes.t
(** [read_bytes t addr len]; charged one load per 8 bytes. *)

val read_to_buffer : t -> int -> int -> Buffer.t -> unit
(** [read_to_buffer t addr len buf]: {!read_bytes} appended to [buf],
    with identical charges and checks. *)

val write_bytes : t -> int -> Bytes.t -> unit
val write_string : t -> int -> string -> unit
(** Charged one store per 8 bytes, like {!write_bytes}; the string is
    written without a host copy. *)

val memset : t -> int -> char -> int -> unit
(** [memset t addr byte len]; charged one store per 8 bytes. *)

val probe : t -> Vmm.Fault.access -> int -> Vmm.Fault.kind option
(** [probe t access addr] performs the access check only — no data
    transfer, no cycle charge, no fault delivery.  [None] means the access
    would succeed. *)

(* {2 Privileged accesses (kernel / test harness)} *)

val priv_read_u64 : t -> int -> int
val priv_write_u64 : t -> int -> int -> unit
val priv_read_string : t -> int -> int -> string

(* {2 Convenience} *)

val charge : t -> int -> unit
(** Charges straight-line compute cycles on the current hart. *)

val cycles : t -> int
(** Total cycles retired across every hart: the sum of the harts'
    {!Cpu.field-cycles}.  A fold over harts; the per-access path never
    reads it. *)

(* {2 Kernel interface (Garmr syscall-confusion surface)}

   The [sys_*] entry points model the syscalls an in-process attacker can
   issue to remap or retag pkey-tagged memory out from under pkalloc.
   With the filter disarmed they forward byte-for-byte to the VMM;
   internal callers (pkalloc, test setup) keep calling [Vmm.Page_table] /
   [Vmm.Pkeys] directly, so arming the filter never changes benign runs.
   Kernel-side work charges no simulated user cycles. *)

val set_syscall_filter : t -> bool -> unit
(** Arms ([true]) or disarms ([false]) the Garmr syscall filter.  Armed,
    any [sys_*] mutation from a hart whose PKRU cannot read
    {!Mpk.Pkey.trusted} — i.e. from U residency — returns
    [Error "EPERM: ..."], ticks [machine.syscall_refused] on the sink and
    dumps the flight recorder with the offending syscall and hart. *)

val syscall_filter : t -> bool

val sys_pkey_mprotect : t -> base:int -> size:int -> Mpk.Pkey.t -> (unit, string) result
(** pkey_mprotect(2): retag a mapped range.  Subject to the filter. *)

val sys_mprotect : t -> base:int -> size:int -> Vmm.Prot.t -> (unit, string) result
(** mprotect(2): change protection bits.  Subject to the filter. *)

val sys_pkey_alloc : t -> (Mpk.Pkey.t, string) result
(** pkey_alloc(2).  Subject to the filter. *)

val sys_pkey_free : t -> Mpk.Pkey.t -> (unit, string) result
(** pkey_free(2).  Subject to the filter. *)

(* {2 TLB observability} *)

val tlb_stats : t -> Tlb.stats
(** Aggregate hit/miss/flush counts across every hart's TLB.  All zero
    when the machine was created with [~tlb:false]. *)
