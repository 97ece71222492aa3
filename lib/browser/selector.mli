(** CSS-selector matching over the machine-resident DOM.

    Supports the selector core that drives jQuery-style workloads:
    {ul
    {- simple selectors: [div], [#id], [.class], [*];}
    {- compound selectors: [div.row], [p#main.note];}
    {- descendant combinators: [ul li], [div .row span];}
    {- selector lists: [h1, h2].}}

    Class matching reads the element's [class] attribute out of simulated
    memory (whitespace-separated word match), so selector-heavy workloads
    cost checked machine loads like real style matching does. *)

type t

exception Parse_error of string

val parse : string -> t
(** @raise Parse_error on empty or malformed selectors. *)

val to_string : t -> string
(** Canonical rendering (single spaces, original component order). *)

val query_all : Dom.t -> t -> Dom.node list
(** All matching elements, in document order (the root itself is never
    returned; text nodes never match). *)

(* {2 Compiled selectors}

   One-time host-side preparation of a parsed selector: names resolve to
   interned codes (revalidated against the DOM's monotonic intern count,
   so names interned after compilation are picked up) and class values
   are split by a caller-supplied function (the browser memoizes it by
   content).  Matching performs the exact same charged DOM reads as the
   interpreted matcher — simulated cycles, faults and traces are
   bit-identical; only host wall-clock drops.
   The browser's per-page selector cache ({!Browser.selector_stats})
   keys compiled selectors by source text. *)

type compiled

val compile : t -> compiled

val source : compiled -> t
(** The parsed selector this was compiled from. *)

val split_on_whitespace : string -> string list
(** Whitespace split of a [class] attribute value: the pure function the
    browser memoizes and passes as [split]. *)

val query_all_compiled : split:(string -> string list) -> Dom.t -> compiled -> Dom.node list
