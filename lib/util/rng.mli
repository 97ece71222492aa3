(** Deterministic pseudo-random number generator.

    All randomness in the simulator flows through this module so that every
    experiment is reproducible from a seed.  The implementation is
    splitmix64, which is small, fast and has good statistical quality for
    simulation purposes. *)

type t

val create : int -> t
(** [create seed] makes a fresh generator from [seed]. *)

val next : t -> int64
(** [next t] returns the next raw 64-bit value. *)

val int : t -> int -> int
(** [int t bound] returns a uniform value in [0, bound).  [bound] must be
    positive. *)

val float : t -> float -> float
(** [float t bound] returns a uniform float in [0, bound). *)

val bool : t -> bool
(** [bool t] returns a uniform boolean. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t a] permutes [a] in place (Fisher-Yates). *)

val pick : t -> 'a array -> 'a
(** [pick t a] returns a uniformly chosen element.  [a] must be non-empty. *)
