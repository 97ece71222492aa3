(** The browser facade: the project's Servo stand-in.

    A browser owns a machine-resident {!Dom}, a script {!Engine} instance
    (the untrusted compartment), and the binding layer between them.  The
    compartment discipline is exactly the paper's:

    {ul
    {- {!exec_script} copies the source into a trusted-side buffer and
       enters the engine through the environment's FFI boundary
       ([Pkru_safe.Env.ffi_call]), so scripts run with the untrusted
       view;}
    {- every DOM binding the script calls re-enters T through the reverse
       gate ([Pkru_safe.Env.callback]), like an exported Servo API;}
    {- bindings that return textual data copy it into fresh allocations
       from dedicated sites and hand the raw buffer to the engine — the
       cross-compartment object flows the profiler must discover.}}

    At startup the browser stores the security experiment's secret (42) at
    the paper's fixed address 0x1680_0000_0000 inside MT, and logs it "on
    exit" via {!read_secret}. *)

module Dom = Dom
module Html = Html
module Sites = Sites
module Style = Style
module Layout = Layout
module Selector = Selector

type t

val create :
  ?engine_seed:int ->
  ?selector_cache:bool ->
  Pkru_safe.Env.t ->
  t
(** [selector_cache] (default [true]) turns
    [domQuery]'s selector cache off when [false]; the differential tests
    do so to assert cached and uncached querying simulate
    bit-identically. *)

val env : t -> Pkru_safe.Env.t
val dom : t -> Dom.t
val engine : t -> Engine.t

val load_page : t -> string -> unit
(** Parses HTML (trusted-side work) and builds the DOM under the root.
    @raise Html.Html_error on bad markup. *)

val set_inner_html : t -> Dom.node -> string -> unit
(** [domSetInnerHTML]: parses the markup, frees the node's subtree and
    builds the parsed trees under it.
    @raise Html.Html_error on bad markup, leaving the DOM untouched. *)

val exec_script : ?tier:Engine.tier -> t -> string -> Engine.Value.t
(** Runs a script in the untrusted compartment against this page.
    [tier] selects the execution tier (default [Ast_tier], the one every
    product path runs; the bytecode pair serves fleet-browse and the
    tier-equivalence tests, see {!Engine.tier}).
    @raise Engine.Eval.Script_error and the engine's parse errors;
    @raise Vmm.Fault.Unhandled when enforcement kills an access. *)

val collect : t -> int
(** Garbage-collect the engine heap between scripts; listener callbacks
    and their captures are rooted and survive. *)

val console : t -> string list
(** Script [print] output collected so far (clears the buffer). *)

val secret_value : int
(** 42, the value planted for the security experiment. *)

val read_secret : t -> int
(** Reads the secret back (trusted-side, as the program-exit log). *)

(* {2 Selector cache observability}

   [domQuery] compiles selectors once per source text and caches them for
   the page's lifetime (see {!Selector}: compiled matching performs the
   identical charged DOM reads, so caching is architecturally invisible —
   it saves host-side parsing/name-resolution only). *)

type selector_stats = {
  mutable sel_hits : int;  (** [domQuery] calls served from the cache *)
  mutable sel_misses : int;  (** calls that parsed + compiled *)
  mutable sel_memo_evictions : int;
      (** entries evicted from the class-split memo *)
}

val selector_stats : t -> selector_stats
val reset_selector_stats : t -> unit
