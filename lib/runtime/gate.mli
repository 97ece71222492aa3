(** Call gates (paper §3.3 / §4.1).

    Every interface from T to U is wrapped so the call first revokes access
    to MT, and the previous permissions are restored on return — tracked on
    the per-thread compartment stack rather than assumed.  Address-taken /
    externally visible functions of T get the reverse gate so callbacks
    from U regain access to MT for their duration.

    Each gate verifies that the PKRU value after the write matches the
    target the gate is meant to enforce and otherwise exits the application
    ("will otherwise exit the application if the values are mismatched").

    With a telemetry sink installed, every compartment residency is also
    bracketed by a causal span ({!Telemetry.Span}, kind [Gate]) opened
    {e before} the verifying write — so if the verify kills the process
    the span is still open and the flight recorder's causal chain names
    the corrupted transition.  A verify mismatch dumps the flight
    recorder (intended vs observed PKRU, transition, cycle) before
    raising. *)

type t

val create : Sim.Machine.t -> t

val stack : t -> Comp_stack.t

val current : t -> Compartment.t
(** Compartment implied by the live PKRU value. *)

val enter_untrusted : t -> unit
(** Gate into U: push current PKRU, write the untrusted view, verify. *)

val exit_untrusted : t -> unit
(** Gate back from U: pop, restore, verify.
    @raise Invalid_argument on unbalanced gates. *)

val enter_trusted : t -> unit
(** Reverse gate, entered when U calls an exported T function. *)

val exit_trusted : t -> unit

val call_untrusted : t -> (unit -> 'a) -> 'a
(** [call_untrusted t f] runs [f] bracketed by
    {!enter_untrusted}/{!exit_untrusted}.  The gate is restored even if
    [f] raises, so a simulated crash in U leaves the harness consistent. *)

val callback_trusted : t -> (unit -> 'a) -> 'a
(** Bracketed reverse gate for a U→T callback. *)

val transitions : t -> int
(** Number of compartment transitions executed (each gate side counts
    one — the Transitions column of Tables 1 and 2). *)

val reset_transitions : t -> unit

val reverify : ?attack:string -> t -> unit
(** Garmr defense: re-checks the hart's live PKRU against the view this
    thread's last verified gate transition installed ([all_enabled]
    before any) — called by the fleet scheduler before resuming a
    parked continuation, catching a sibling hart's mid-slice WRPKRU flip
    before the slice runs.  On mismatch, dumps the flight recorder
    (expected vs observed PKRU, hart, and [attack] when given) and kills
    the process.  Charges no simulated cycles and emits nothing when the
    check passes, so enabling it is architecturally invisible on benign
    runs.
    @raise Sim.Signals.Process_killed on mismatch *)

val set_pkru_corruptor : t -> (Mpk.Pkru.t -> Mpk.Pkru.t) option -> unit
(** Fault-injection hook for the chaos harness: with [Some f], every
    WRPKRU of this gate writes [f target] instead of [target] while still
    verifying the result against [target] — so any corruption that
    changes the value is caught by the gate's own check
    ({!Sim.Signals.Process_killed}).  [None] (the default) is the
    production path.  Reset it after a scenario; never set outside
    tests/chaos. *)

val stack_frames : t -> string list
(** The current compartment nesting as folded-stack frames, root first
    (e.g. [["trusted"; "untrusted"]] inside an FFI call) — the snapshot
    the {!Telemetry.Sampler} provider takes.  Pure reads; charges no
    cycles. *)
