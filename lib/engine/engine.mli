(** The engine facade: the project's SpiderMonkey stand-in.

    An engine instance owns a machine-backed heap and an evaluator.  The
    embedder (the browser) is expected to invoke {!eval_source} from
    inside the untrusted compartment — i.e. within
    [Pkru_safe.Env.ffi_call] — so that lexing, evaluation and every data
    access the script performs are subject to MPK checks. *)

module Value = Value
module Lexer = Lexer
module Parser = Parser
module Ast = Ast
module Eval = Eval
module Bytecode = Bytecode
module Threaded = Threaded

(** Every product path runs [Ast_tier].  The bytecode pair stays only as
    the engine of perfbench's fleet-browse workload and as the subject of
    the tier-equivalence tests and the bytecode twin pins. *)
type tier =
  | Ast_tier
      (** AST compiled once to closures that charge per AST step, as a
          tree walk would (default) *)
  | Bytecode_tier (** compile to stack bytecode, then interpret (reference) *)
  | Threaded_tier
      (** closure-compiled dispatch + superinstructions + inline caches;
          simulates bit-identically to [Bytecode_tier] *)

type t

val create : ?seed:int -> ?fuel:int -> Pkru_safe.Env.t -> t

val heap : t -> Value.heap
val evaluator : t -> Eval.t

val threaded_stats : t -> Threaded.stats
(** This instance's threaded-tier counters (accumulated across
    [eval_source] calls; variable-IC counters are on the evaluator:
    [Eval.ic_stats (evaluator t)]). *)

val reset_stats : t -> unit
(** Zeroes both the variable-IC and threaded-tier counters. *)

val register_host : t -> string -> Eval.host -> unit
(** Expose an embedder function (e.g. a DOM binding) as a script global. *)

val eval_source : ?tier:tier -> t -> Value.str -> Value.t
(** Tokenise, parse and run a script held in machine memory (possibly a
    buffer owned by the trusted side — the classic shared data flow).
    The default is the AST tier, the only one the product runs.
    @raise Eval.Script_error / Lexer.Lex_error / Parser.Parse_error *)

val eval_string : ?tier:tier -> t -> string -> Value.t
(** Convenience for tests: copies the text into the engine's own MU heap
    first, then evaluates. *)

val take_output : t -> string list

val collect : t -> int
(** Run a garbage collection at this quiescence point (between scripts);
    returns the number of machine buffers reclaimed. *)

val add_gc_root : t -> (unit -> Value.t list) -> unit
(** Register embedder-held values (see [Eval.add_gc_root]). *)
