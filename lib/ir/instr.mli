(** The intermediate representation.

    A small register IR standing in for LLVM IR: functions of basic blocks,
    virtual registers, explicit loads/stores against simulated memory, and
    calls.  It carries exactly the information the PKRU-Safe toolchain
    needs: allocator call sites (so the AllocId pass can tag them and the
    profile pass can retarget them), cross-crate calls (so the gate pass
    can wrap boundary interfaces), and function-address captures (so
    address-taken functions of T get reverse gates). *)

type reg = int

type operand =
  | Imm of int
  | Reg of reg

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | And
  | Or
  | Xor
  | Shl
  | Shr
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

type pool =
  | Trusted_pool    (** __rust_alloc: allocate from MT *)
  | Untrusted_pool  (** __rust_untrusted_alloc: allocate from MU *)

type gate_op =
  | Enter_untrusted
  | Exit_untrusted
  | Enter_trusted
  | Exit_trusted

type t =
  | Const of reg * int
  | Binop of binop * reg * operand * operand
  | Load of {
      dst : reg;
      addr : operand;
      width : int; (* 1, 2, 4 or 8 bytes *)
    }
  | Store of {
      src : operand;
      addr : operand;
      width : int;
    }
  | Alloc of {
      dst : reg;
      size : operand;
      mutable site : Runtime.Alloc_id.t; (* assigned by the AllocId pass *)
      mutable pool : pool;               (* retargeted by the profile pass *)
      mutable instrumented : bool;       (* set by the provenance pass *)
    }
  | Alloca of {
      dst : reg;
      size : operand;
      mutable site : Runtime.Alloc_id.t;
      mutable shared : bool;             (* profile pass: demote to MU heap *)
      mutable instrumented : bool;
    }
      (** Stack allocation (the §6 stack-protection extension): lives in
          the trusted stack region and dies with the frame; when profiling
          shows U touching it, the enforcement build demotes the site to a
          frame-lifetime MU heap allocation. *)
  | Dealloc of operand
  | Realloc of {
      dst : reg;
      addr : operand;
      size : operand;
    }
  | Call of {
      dst : reg option;
      mutable callee : string; (* rewritten to a wrapper by the gate pass *)
      args : operand list;
    }
  | Call_indirect of {
      dst : reg option;
      target : operand; (* index into the module function table *)
      args : operand list;
    }
  | Func_addr of reg * string (* take the address of a function *)
  | Call_host of {
      dst : reg option;
      host : string; (* host function provided by the embedder *)
      args : operand list;
    }
  | Gate of gate_op (* only ever appears in pass-generated wrappers *)

type terminator =
  | Ret of operand option
  | Br of int
  | Cond_br of operand * int * int

val pp : Format.formatter -> t -> unit
val pp_terminator : Format.formatter -> terminator -> unit

val defined_reg : t -> reg option
(** The register an instruction writes, if any. *)

val used_operands : t -> operand list
(** Every operand an instruction reads. *)
