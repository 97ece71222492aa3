(** Deterministic fault-injection harness for the enforcement pipeline.

    Every scenario perturbs a full pipeline run (profile → enforcement
    build → workload) in one specific way, drives it to completion or
    death, and then checks the invariants that must survive {e any}
    perturbation:

    {ul
    {- the secret page is never readable from U — probed through the gate
       after the run, whatever happened during it;}
    {- gate balance is restored whenever execution continued or failed
       gracefully (fail-stop deaths freeze the stack at the kill point by
       design and are exempt);}
    {- mitigation incidents are visible in telemetry
       ([pkru_mitigation_total{policy,outcome}]);}
    {- no MT-pool object is reachable from U — a conservative
       {!Audit.scan} over every U-readable resident page after the run.
       A finding at an {e in-profile} site is always a failure (profiled
       sites allocate from MU by construction); fully-profiled scenarios
       ([Pkalloc_oom], [Gate_corruption]) must come back entirely
       leak-free, while the dropped-site scenarios may legitimately
       surface out-of-profile objects (that gap {e is} the scenario);}
    {- [Abort]-policy runs die exactly as the seed does.}}

    All randomness flows from the scenario seed through {!Util.Rng}, so a
    [(scenario, policy, seed)] triple replays bit-identically. *)

type scenario =
  | Coverage_gap
      (** drop a fraction of the input profile's entries, modelling
          allocation sites never exercised during profiling (§6). *)
  | Pkalloc_oom
      (** force pkalloc to report exhaustion on the nth allocation,
          mid-workload. *)
  | Gate_corruption
      (** corrupt the PKRU value written by every gate (Garmr-style gate
          attack); the gate's own verify must catch it. *)
  | Handler_tamper
      (** unregister, shadow or reorder the SIGSEGV handler chain before
          the workload runs. *)

val all_scenarios : scenario list
val scenario_to_string : scenario -> string
val scenario_of_string : string -> scenario option

type report = {
  scenario : scenario;
  policy : Runtime.Mitigator.policy;
  seed : int;
  completed : bool;  (** the workload script ran to completion *)
  outcome : string;
      (** ["completed"], or the class of death / graceful failure
          (["unhandled-fault: ..."], ["killed: ..."], ["degraded: ..."],
          ["oom"]). *)
  incidents : int;  (** mitigator incidents during the (first) run *)
  incident_outcomes : (string * int) list;
  rerun_incidents : int option;
      (** [Coverage_gap] re-runs the workload on the same image; under
          [Promote] this second count must be strictly below [incidents]
          (quarantined sites now allocate in MU). *)
  promoted_sites : string list;
  secret_intact : bool;
  gate_balanced : bool;
  audit_leak_free : bool;
      (** the post-run {!Audit.scan} found no MT object reachable from U *)
  audit_findings : (string * int) list;
      (** leaking sites with the number of U-visible words referencing
          their objects; non-empty only when [audit_leak_free] is false *)
  invariant_failures : string list;  (** empty iff every invariant held *)
  details : string list;  (** what the injector actually did *)
  prometheus : string;
      (** the run's telemetry rendered as the Prometheus text exposition —
          [pkru_mitigation_total{policy,outcome}] carries the incident
          counts (same pipeline as the CLI's [report prom]). *)
  flight_dumps : Util.Json.t list;
      (** {!Telemetry.Flight} post-mortems recorded while the scenario
          drove the workload (deaths inside the boundary) plus one for any
          invariant failure — each self-contained and renderable with the
          [doctor] CLI.  Empty when nothing died and every invariant
          held. *)
}

val run :
  ?drop:float ->
  ?oom_at:int ->
  scenario:scenario ->
  policy:Runtime.Mitigator.policy ->
  seed:int ->
  unit ->
  report
(** One scenario under one policy.  [drop] (default 0.10) is the profile
    fraction removed by [Coverage_gap]/[Handler_tamper] — at least one
    site is always dropped, so the scenario never degenerates into a
    no-op on small profiles; [oom_at] (default 40) the 1-based
    allocation index [Pkalloc_oom] poisons. *)

val report_to_json : report -> Util.Json.t
val pp_report : Format.formatter -> report -> unit

(** {2 The Garmr attack battery}

    Each attack class from {!Exploit.Garmr} is run twice on the same
    seed — defense off, then on — and both halves are adjudicated:

    {ul
    {- {b undefended must leak}: an attack the defense-off run silently
       stops proves nothing about the defense (the battery must have
       teeth);}
    {- {b defended must be defeated}: nothing leaks, the attacker is
       killed or refused, at least one flight dump names the attack at
       the point of kill, and the kill/refusal message is attributed to
       a hart;}
    {- benign victim programs complete in both halves.}}

    Violations are seed-tagged invariant failures; the CLI's
    [chaos --attacks] exits non-zero on any. *)

type attack_report = {
  ar_attack : Exploit.Garmr.attack;
  ar_seed : int;
  ar_harts : int;
  ar_undefended : Exploit.Garmr.result;
  ar_defended : Exploit.Garmr.result;
  ar_invariant_failures : string list;  (** empty iff every invariant held *)
  ar_flight_dumps : Util.Json.t list;
      (** both halves' post-mortems, undefended first *)
}

val run_attacks :
  ?harts:int -> ?attacks:Exploit.Garmr.attack list -> seed:int -> unit -> attack_report list
(** The full battery (default {!Exploit.Garmr.all_attacks}); per-attack
    seeds are derived from [seed]. *)

val attack_report_to_json : attack_report -> Util.Json.t
val pp_attack_report : Format.formatter -> attack_report -> unit
