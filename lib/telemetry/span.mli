(** Hierarchical causal spans: cycle-stamped intervals with parent links,
    opened at compartment crossings, mitigator incidents, chaos
    injections and workload phases.

    Each hart keeps a stack of open spans; a new span's parent is the
    span that was open on that hart when it began, so a crash's open
    chain reads as the causal path to the failure.  Closed spans land in
    a bounded ring (oldest evicted first).  Recording never charges
    simulated cycles. *)

type kind =
  | Gate      (** one compartment residency between a gate enter and its exit *)
  | Incident  (** a mitigator adjudication (instant) *)
  | Chaos     (** a chaos-harness injection window *)
  | Phase     (** an engine / browser workload phase *)
  | Census    (** one heap-census snapshot walk (instant) *)

val kind_to_string : kind -> string

type record = {
  id : int;             (** 1-based, unique within the store *)
  parent : int;         (** 0 = root *)
  name : string;
  kind : kind;
  cpu : int;
  t_begin : int;
  mutable t_end : int;  (** -1 while open *)
}

val is_open : record -> bool
val duration : record -> int
(** [t_end - t_begin]; 0 while open. *)

type t

val create : unit -> t
(** Keeps the latest 8192 closed spans. *)

val enter : t -> ts:int -> cpu:int -> kind:kind -> string -> int
(** Opens a span and returns its id; the parent is the hart's innermost
    open span. *)

val exit : t -> ts:int -> cpu:int -> ?id:int -> unit -> unit
(** Closes the hart's innermost open span.  With [id], pops until that
    span closes, closing any abandoned inner spans at the same timestamp
    (exception-unwind coherence).  A close with no matching open is a
    no-op. *)

val instant : t -> ts:int -> cpu:int -> kind:kind -> string -> int
(** A zero-duration span, parented like {!enter}, immediately closed. *)

val closed : t -> record list
(** Closed spans still in the ring, oldest first. *)

val open_spans : t -> record list
(** Every open span across all harts, by id. *)

val opened_total : t -> int
val dropped : t -> int

val record_to_json : record -> Util.Json.t
val record_of_json : Util.Json.t -> record
(** Inverse of {!record_to_json}.
    @raise Invalid_argument on malformed input. *)

val digest_json : t -> Util.Json.t
(** Aggregate per-name counts / cycle totals plus store accounting —
    the [spans] digest carried by report and bench artifacts. *)
