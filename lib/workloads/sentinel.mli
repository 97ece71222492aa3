(** The bench regression sentinel.

    A fixed set of small probe workloads whose simulated cycle counts are
    deterministic, compared against a checked-in, schema-versioned
    baseline ([BENCH_BASELINE.json]).  Because the simulator is
    deterministic, the comparison is {e exact}: any drift in cycles or
    gate transitions, and any probe missing on either side, means the
    simulation's behaviour changed and fails.  The sentinel records no
    host time: that is machine-dependent, and perfbench measures it. *)

type probe_result = {
  p_name : string;
  p_tier : string;  (** engine execution tier: ["ast"], ["bytecode"] or ["threaded"] *)
  p_cycles : int;  (** simulated cycles — deterministic, compared exactly *)
  p_transitions : int;  (** gate transitions — deterministic, compared exactly *)
}

val twin_pairs : (string * string) list
(** Probe pairs the baseline pins cycle-equal: the mitigator's, the
    census's and the threaded dispatch tier's architectural invisibility,
    each expressed as a pair of probes that must report identical cycles
    and transitions. *)

val twin_mismatches : probe_result list -> (string * string) list
(** The {!twin_pairs} whose two probes diverged in this run (pairs with a
    missing member are skipped — [compare_results] flags those). *)

val run_probes : unit -> probe_result list
(** Profile and run every probe (fresh machine per probe, same pipeline as
    the bench harness). *)

val commit_hash : unit -> string
(** [git rev-parse HEAD], or ["unknown"] outside a git checkout. *)

val baseline_json : ?commit:string -> probe_result list -> Util.Json.t
(** Wrap results as a baseline artifact: [{schema; commit; probes}].
    [commit] defaults to {!commit_hash}[ ()]. *)

val baseline_of_json : Util.Json.t -> string * probe_result list
(** Inverse of {!baseline_json}; returns [(commit, results)].  Raises
    [Invalid_argument] on a missing or mismatched schema stamp. *)

type verdict =
  | Match
  | Cycle_drift of { base_cycles : int; base_transitions : int }
      (** simulated cycles or transitions differ from the baseline — the
          deterministic simulation changed *)
  | Missing_in_baseline  (** probe ran but the baseline has no entry *)
  | Missing_in_run  (** baseline entry with no fresh result *)

val compare_results :
  baseline:probe_result list ->
  probe_result list ->
  (string * probe_result * verdict) list
(** Diff a fresh run against the baseline.  One entry per fresh probe (in
    run order) followed by one [Missing_in_run] entry per baseline probe
    the run did not produce (carrying the baseline's own result). *)

val has_regression : (string * probe_result * verdict) list -> bool
(** Any verdict other than [Match]: the probe set is fixed in code, so a
    probe missing on either side fails like drift. *)

val render_comparison : commit:string -> (string * probe_result * verdict) list -> string
(** Human-readable comparison table, one line per probe plus a summary
    line; [commit] is the baseline's stamp. *)
