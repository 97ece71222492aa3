(** Name lookup for suites and benchmarks.

    One registry backs the CLI ([suite], [trace], [report]) and the bench
    harness, so an unknown name always fails with the same message — one
    that lists every valid spelling — instead of a bare "unknown". *)

val benches : Bench_def.bench list
(** Every benchmark, enumerated from the four top-level suites (the
    Dromaeo sub-suites partition [dromaeo], so no benchmark repeats). *)

val suite_of_name : string -> (Bench_def.suite, string) result
(** [Error] carries a message listing every suite name. *)

val bench_of_name : string -> (Bench_def.bench, string) result
(** Accepts a benchmark's bare name, or [Suite/name] with the suite's
    [suite_name] (for instance [JetStream2/ai-astar]).  A bare name that
    several suites use is refused: the [Error] lists its qualified forms.
    An unknown name's [Error] lists one accepted spelling per benchmark:
    the bare name where it is unique, the qualified one otherwise. *)
