(** DOM-bound workload generators (the Dromaeo dom and jslib families).

    These scripts cross the FFI boundary in tight loops — each binding
    call is two gate transitions plus, for the getters, a buffer read out
    of a shared allocation — reproducing the transition density that makes
    dom/jslib the paper's worst cases (Table 2). *)

val page : rows:int -> string
(** A page of [rows] identical <div class="row" data="...">...</div> rows. *)

val dom_attr : iters:int -> string
(** getAttribute/setAttribute ping-pong on one node. *)

val dom_create : iters:int -> string
(** createElement + appendChild + childCount loops, with periodic subtree
    teardown. *)

val dom_query : iters:int -> string
(** Repeated tag queries over the whole document. *)

val dom_html : iters:int -> string
(** innerHTML reads (serialisation into a shared buffer, then scanned). *)

val dom_traverse : iters:int -> string
(** textContent walks. *)

val jslib_toggle : iters:int -> string
(** jQuery-style: query once, then per-node attribute toggling. *)

val jslib_build : iters:int -> string
(** jQuery-style DOM building through innerHTML assignment. *)

val dom_style : iters:int -> string
(** Style mutation + reflow + box readback per iteration: the
    layout-bound workload (each box string is a shared allocation). *)

val jslib_select : iters:int -> string
(** Selector-engine stress: repeated class / descendant / list queries
    (jQuery's hot path). *)

val dom_events : iters:int -> string
(** Event dispatch with listeners that call back into the DOM: the
    deeply-nested-transition workload of §5.3 (script -> dispatch ->
    callback -> getAttribute, four compartment levels per event). *)

val gate_bound : Bench_def.bench
(** {!dom_attr} for 120 iterations on an 8-row page: binding calls cross
    the boundary in a tight loop (the ablations' and chaos's workload). *)
