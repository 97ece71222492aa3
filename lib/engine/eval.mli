(** The MiniJS evaluator.

    The AST tier: each program is compiled once, node by node, into OCaml
    closures of one argument (the scope) that hold the evaluator they
    were compiled against and run against machine-resident data (see
    {!Value}).  A
    compiled node ticks and charges exactly what visiting it in a tree
    walk would, in the same order; operators, literals and special forms
    are decoded at compile time, and every identifier resolves by
    lexical address: a slot of a static frame, or a cached slot of the
    global table.  Function bodies compile on
    their first call, against the calling evaluator, and are shared by
    every closure minted at the same literal.  Built-in namespaces ([Math], [JSON], [String]) and methods
    on strings/arrays are provided here; embedder bindings (the DOM API)
    are registered as host functions and appear as globals.

    Every evaluation step charges cycles on the simulated CPU, and every
    string/array access is a checked machine access, so running a script
    inside an untrusted compartment faults exactly where real engine code
    would. *)

exception Script_error of string

type host = Value.t list -> Value.t

type t

val create : ?seed:int -> ?fuel:int -> Value.heap -> t
(** [seed] drives [Math.random]; [fuel] bounds evaluation steps
    (default 200M). *)

val heap : t -> Value.heap

val register_host : t -> string -> host -> unit
(** Exposes a native function as a global. *)

val set_global : t -> string -> Value.t -> unit

val run_program : t -> Ast.program -> Value.t
(** Executes top-level statements; the value of the last expression
    statement is returned (like a REPL), [Null] otherwise.
    @raise Script_error on runtime errors or fuel exhaustion. *)

val call_function : t -> Value.t -> Value.t list -> Value.t
(** Invoke a [Fun] or [Host] value from the embedder. *)

val take_output : t -> string list
(** Lines produced by [print], oldest first; clears the buffer. *)

val steps : t -> int
(** Ticks so far: the fuel used. *)

(* {2 The tier-shared semantic core}

   The bytecode tier ({!Bytecode}) executes the same language with the
   same observable semantics; rather than duplicating them, the VM drives
   these primitives.  They are exact counterparts of what the AST
   tier's compiled code does. *)

type scope

val start_run : t -> scope
(** A bytecode-tier run's global scope; resets the call depth. *)

val enter_call : ?origin:int -> t -> int -> string list -> Value.t list -> scope
(** [enter_call t id params args] starts a bytecode-tier call of [Fun id]
    one level deeper, charging nothing: the child of the closure's scope
    with [params] declared (missing arguments null).  [origin] (from
    {!fresh_origin}) marks one call site's scopes for the slot cache.
    @raise Script_error at the AST tier's call-depth bound. *)

val leave_call : t -> unit
(** A normal return from {!enter_call}. *)

val new_scope : parent:scope -> unit -> scope
(** A block or loop scope. *)

val fresh_origin : t -> int
(** A per-evaluator-unique id for one closure-call site's scopes.
    Counted per evaluator so session results are order-independent:
    interleaved sessions mint the same ids as sequential ones. *)

val scope_declare : scope -> string -> Value.t -> unit
(** [var name = v] in this scope. *)

val scope_lookup : t -> scope -> string -> Value.t option
(** Walks the scope chain (charging the same lookup cost). *)

val scope_assign : t -> scope -> string -> Value.t -> unit
(** Assignment: updates the innermost binding, or creates a global (the
    language's fallback, as in the AST tier). *)

val host_exists : t -> string -> bool

(* {2 Variable inline caches}

   A bytecode load/store site caches the binding it found and skips the
   host-side probes of the scope walk, charging exactly what the walk
   would have charged: a full-walk cache anchored on the innermost scope
   (stable in loops and at top level), a walk-above cache anchored on its
   parent (stable across calls to one closure) behind a real, charged
   probe of the innermost level, and a slot cache for scopes of one call
   site.  A cache is valid while no scope it skipped has declared a new
   name; a site whose anchors never stabilise reverts to the plain walk. *)

type var_site

val var_site : string -> var_site
(** A fresh (empty) per-call-site cache for [name]. *)

val cached_lookup : t -> scope -> var_site -> Value.t option
(** Same observable behaviour and charges as {!scope_lookup}. *)

val cached_assign : t -> scope -> var_site -> Value.t -> bool
(** Updates the innermost existing binding ([false] if none exists
    anywhere — the caller applies the global-declaration fallback).
    Charges nothing, like the uncached assignment walk. *)

type ic_stats = {
  mutable var_hits : int;
  mutable var_misses : int;
}

val ic_stats : t -> ic_stats
(** This evaluator's variable-IC counters (host-side observability only;
    per-evaluator so concurrent sessions don't cross-pollute).  Only
    {!var_site}s count: the AST tier's own caches do not, so these stay
    zero off the fast tier. *)

val reset_ic_stats : t -> unit

val call_value : t -> Value.t -> Value.t list -> Value.t
(** Call a [Fun] (running its AST-tier code) or [Host] value. *)

val binary_fn : string -> t -> Value.t -> Value.t -> Value.t
(** [binary_fn op] resolves the operator string once, at site-compile
    time, returning a closure that charges 1 cycle and then applies the
    operator (an unknown operator charges 1, then fails). *)

val truthy_value : Value.t -> bool
val unary_op : t -> string -> Value.t -> Value.t
val method_call : t -> Value.t -> string -> Value.t list -> Value.t
val member_get : t -> Value.t -> string -> Value.t
val member_set : t -> Value.t -> string -> Value.t -> unit
val index_get : t -> Value.t -> Value.t -> Value.t
val index_set : t -> Value.t -> Value.t -> Value.t -> unit
val ns_call : t -> string -> string -> Value.t list -> Value.t
(** Math / JSON / String namespace calls. *)

val print_values : t -> Value.t list -> unit
val array_of_size : t -> Value.t -> Value.t
(** The [new Array(n)] builtin. *)

type func
(** A function literal: parameters, body, and the body's AST-tier code,
    compiled on the first call against the calling evaluator and shared
    by every closure made from this value (a call from another evaluator
    compiles its own). *)

val func : params:string list -> body:Ast.stmt list -> func
(** Make one per literal site, so closures minted there share one compile. *)

val func_params : func -> string list
val func_body : func -> Ast.stmt list

val make_closure : t -> func -> scope -> Value.t
(** A [Fun] capturing [scope]; calling it through {!call_value} runs the
    function's AST-tier code. *)

val tick : t -> int -> unit
(** One evaluation step: one count off the fuel, a cycle charge, and the
    yield when a timeslice ends (see {!set_yield}).
    @raise Script_error on fuel exhaustion, before the charge. *)

val set_yield : t -> timeslice:int -> (unit -> unit) -> unit
(** [set_yield t ~timeslice yield] runs [yield] after the charge of every
    [timeslice]-th {!tick} from now, on all execution tiers, except on
    the tick that runs out of fuel.  It is for cooperative scheduling
    ([yield] may perform an effect to park the session); it must charge
    no simulated cycles and emit no telemetry itself, so a yielding run
    stays bit-identical to an unyielding one.  Replaces an earlier
    setting; the fuel and the timeslice share one countdown, so a tick
    costs the same with or without it.
    @raise Invalid_argument when [timeslice] is not positive. *)

val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Script_error} with a formatted message. *)

val gc : t -> int
(** Mark-sweep collection of the engine heap: marks everything reachable
    from the global scope (through arrays' machine slots, object
    properties and closure environments) and frees the machine buffers of
    everything else.  Returns the number of buffers freed.

    Only safe at a quiescence point — between scripts — because values
    held solely on the evaluator's OCaml stack are invisible to the
    marker; the embedder API ([Engine.collect]) is the intended entry
    point, and no [gc()] builtin is exposed to scripts.

    Embedders that retain engine values outside the global scope (e.g.
    the browser's event-listener table) must register them as GC roots
    with {!add_gc_root}, the moral equivalent of a handle scope. *)

val add_gc_root : t -> (unit -> Value.t list) -> unit
(** Registers a provider of additional roots, consulted at every
    collection. *)
