(** Benchmark and suite descriptions shared by the four suites. *)

type bench = {
  name : string;
  page : string;        (** HTML loaded before the script runs *)
  script : string;      (** the timed workload *)
  engine_seed : int;    (** Math.random seed: 1 for every benchmark *)
}

type suite = {
  suite_name : string;
  benches : bench list;
}

val bench : ?page:string -> string -> string -> bench
(** [bench name script], with [Math.random] seeded with 1. *)
