(** Convenience builder for IR functions.

    Emission targets a current block; every block must be terminated
    before {!finish}.  Registers are allocated with {!fresh}; parameters
    occupy the first registers. *)

type t

val create : name:string -> crate:string -> nparams:int -> unit -> t
(** Starts a function (not exported) with entry block 0 selected. *)

val new_block : t -> int
(** Creates a block and returns its id (does not switch to it). *)

val switch_to : t -> int -> unit
(** Subsequent emissions go to this block. *)

(* Instruction emitters; those producing a value return the destination
   register. *)

val const : t -> int -> Instr.reg
val binop : t -> Instr.binop -> Instr.operand -> Instr.operand -> Instr.reg
val load : t -> ?width:int -> Instr.operand -> Instr.reg
val store : t -> ?width:int -> src:Instr.operand -> addr:Instr.operand -> unit -> unit
val alloc : t -> Instr.operand -> Instr.reg
val alloca : t -> Instr.operand -> Instr.reg
val realloc : t -> addr:Instr.operand -> size:Instr.operand -> Instr.reg
val call : t -> ?ret:bool -> string -> Instr.operand list -> Instr.reg option
val call_indirect : t -> ?ret:bool -> Instr.operand -> Instr.operand list -> Instr.reg option
val func_addr : t -> string -> Instr.reg
val call_host : t -> ?ret:bool -> string -> Instr.operand list -> Instr.reg option

(* Terminators. *)

val ret : t -> Instr.operand option -> unit
val br : t -> int -> unit
val cond_br : t -> Instr.operand -> int -> int -> unit

val finish : t -> Func.t
(** @raise Invalid_argument if any block lacks a terminator. *)
