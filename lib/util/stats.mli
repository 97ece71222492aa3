(** Small statistics helpers used by the benchmark harness. *)

val mean : float list -> float
(** Arithmetic mean; 0.0 on the empty list. *)

val geomean : float list -> float
(** Geometric mean; 0.0 on the empty list.
    @raise Invalid_argument on any non-positive value. *)

val percentile : float -> float list -> float
(** [percentile p xs] is the inclusive linearly-interpolated [p]-th
    percentile: [percentile 0.0] is the minimum, [percentile 100.0] the
    maximum, [percentile 50.0] the median.
    @raise Invalid_argument on an empty sample or a rank outside
    [\[0, 100\]]. *)

val percent_overhead : baseline:float -> measured:float -> float
(** [(measured - baseline) / baseline * 100].  [baseline] must be non-zero. *)
