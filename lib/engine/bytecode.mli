(** The bytecode execution tier.

    Real engines are tiered — SpiderMonkey parses to bytecode and runs a
    baseline interpreter before JIT compilation.  This module is that
    second tier for MiniJS: {!compile} lowers a parsed program to a stack
    bytecode, and {!run} executes it on a value stack, driving the exact
    same semantic core as the AST tier ({!Eval}'s shared primitives), so
    both tiers are observationally identical — a property the test suite
    checks differentially on every benchmark kernel.

    Functions compile lazily on first call (a compile-on-demand baseline
    tier); closures remain interoperable with the AST tier, so a DOM
    callback may run a function the VM created on the AST tier. *)

(** The instruction set is exposed so the fast tier ({!Threaded}) can
    compile the same code objects to closures and the profiler/report can
    name opcodes; the compiler itself lives here and is shared. *)
type instr =
  | Push_num of float
  | Push_bool of bool
  | Push_null
  | Push_str of string (* materialises a fresh machine string, like the AST tier *)
  | Load_var of string
  | Store_var of string (* assignment; keeps the value on the stack *)
  | Decl_var of string (* var declaration; pops *)
  | Pop
  | Dup
  | Dup2
  | Bin_op of string
  | Un_op of string
  | Jump of int
  | Jump_if_false of int (* pops the condition *)
  | Jump_if_false_peek of int (* && : leaves the falsy value *)
  | Jump_if_true_peek of int (* || : leaves the truthy value *)
  | Load_index (* obj idx -> value *)
  | Store_index_keep (* obj idx value -> value *)
  | Load_member of string
  | Store_member_keep of string (* obj value -> value *)
  | Call_top of int (* callee arg1..argn -> result *)
  | Method_call of string * int
  | Ns_call of string * string * int
  | Print_op of int
  | New_array_op
  | Make_array of int
  | Make_object of string list (* values pushed in field order *)
  | Make_closure of Eval.func
    (* one per literal site; bodies compile on first call (a baseline tier) *)
  | Push_scope
  | Pop_scope
  | Pop_scopes of int
  | Ret
  | Ret_null

type program = { top : instr array }

val compile : Ast.program -> program
(** Pure lowering; no evaluator state involved. *)

val compile_body : Ast.stmt list -> toplevel:bool -> instr array
(** Lower a statement list (a function body when [toplevel:false] — its
    value comes only from [return]). *)

val instr_to_string : instr -> string

val disassemble : program -> string
(** Human-readable listing of the top-level code (for tests/debugging). *)

val instruction_count : program -> int
(** Instructions in the top-level code object. *)

val run : Eval.t -> program -> Value.t
(** Executes top-level code against the evaluator's global scope; like the
    AST tier, yields the value of the final expression statement.
    @raise Eval.Script_error on runtime errors / fuel exhaustion. *)
