(** Cycle-driven sampling profiler with folded-stack output.

    Every [every] simulated cycles (ticked from the machine's charge
    path), the sampler snapshots the current compartment stack — obtained
    from its provider ({!set_provider}) — and accumulates it as a folded
    stack.  {!to_folded} emits the standard collapsed format
    ["frame;frame;frame count"] that flamegraph tooling (Brendan Gregg's
    [flamegraph.pl], speedscope, inferno) loads directly.

    The sampler never charges simulated cycles, so sampled and unsampled
    runs retire bit-identical cycle counts; disabled, the whole feature is
    one load and one branch per charge. *)

type t

val create : every:int -> t
(** @raise Invalid_argument when [every <= 0]. *)

val every : t -> int

val set_provider : t -> (unit -> string list) -> unit
(** Registers the snapshot provider: it returns the current compartment
    stack, root first (e.g. [["trusted"; "untrusted"]] inside an FFI
    call).  Set by the layer that owns the compartment stack; must not
    charge cycles.  Installation on a machine is {!Ctx.with_sampler}. *)

(* {2 Recording} *)

val tick : t -> int -> unit
(** Advances the cycle credit by [n]; takes one sample per whole period
    elapsed (a single large charge spanning k periods records k samples
    against the same stack, keeping samples proportional to cycles). *)

(* {2 Reading} *)

val samples_total : t -> int

val stacks : t -> (string * int) list
(** [(folded stack, samples)], sorted by stack for deterministic output. *)

val leaf_counts : t -> (string * int) list
(** Samples aggregated by innermost frame — the per-compartment sample
    distribution checked against the flow matrix's cycle totals. *)

val leaf_shares : t -> (string * float) list
(** {!leaf_counts} normalised to fractions of all samples (empty when no
    samples were taken). *)

val to_folded : t -> string
(** One ["stack count"] line per distinct stack. *)

val to_json : t -> Util.Json.t
