(** Opcode frequency profiling for the reference bytecode interpreter.

    Counts executed opcodes and fall-through adjacent opcode pairs (the
    pairs a superinstruction could fuse).  Purely host-side: collection
    charges no simulated cycles, so a profiled run is bit-identical to an
    unprofiled one.  [report --opcodes] renders the output; the measured
    pair ranking justifies {!Threaded}'s fused set (see EXPERIMENTS.md). *)

type t

val create : unit -> t

val record : t -> ?prev:string -> string -> unit
(** [record t ?prev cur] counts one execution of opcode [cur]; [prev] is
    the previous opcode when it fell through adjacently (pc = prev_pc+1
    in the same frame). *)

val total : t -> int

val singles : t -> (string * int) list
(** Opcode counts, descending. *)

val pairs : t -> ((string * string) * int) list
(** Adjacent-pair counts, descending. *)

val to_json : t -> Util.Json.t
val render : t -> string
