(** The telemetry event taxonomy.

    Every observable action inside the simulated machine is one of these
    typed events; the instrumented subsystems construct them only when a
    sink is installed, so a disabled run allocates nothing.  Timestamps
    are simulated cycles ({!Sim.Machine.cycles} at emission), which makes
    traces deterministic and replayable. *)

type compartment =
  | Trusted
  | Untrusted

val compartment_to_string : compartment -> string

type signal =
  | Segv
  | Trap

type page_fault_kind =
  | Not_mapped       (** access to an unmapped address *)
  | Prot_violation   (** page-protection (not pkey) denial *)
  | Demand_paged     (** first touch materialised a reserved page *)

type t =
  | Gate_enter of { target : compartment }
      (** One gate side switching {e into} [target]. *)
  | Gate_exit of { target : compartment }
      (** The matching gate side restoring the saved view; [target] is the
          compartment being left. *)
  | Wrpkru of { value : int }
  | Mpk_fault of { addr : int; pkey : int }
  | Signal_dispatch of { signal : signal }
  | Alloc of { compartment : compartment; site : string option; addr : int; size : int }
      (** [site] is the printed {!Runtime.Alloc_id.t} when the allocation
          came through the instrumented global-allocator surface. *)
  | Free of { compartment : compartment; addr : int }
  | Page_fault of { addr : int; kind : page_fault_kind }
  | Thread_switch of { from_cpu : int; to_cpu : int }

type record = {
  ts : int;  (** simulated cycles at emission *)
  cpu : int; (** hart the event occurred on *)
  event : t;
}

val kind : t -> string
(** Stable snake_case tag, used as the counter key and JSON "kind". *)

val is_gate_transition : t -> bool
(** True for [Gate_enter]/[Gate_exit] — the events whose count must equal
    {!Runtime.Gate.transitions}. *)

val args_json : t -> (string * Util.Json.t) list
val record_to_json : record -> Util.Json.t
