(** Module well-formedness checks, run after construction and after every
    pass pipeline.

    Beyond structural checks (branch targets, register bounds, access
    widths, call arity), the verifier enforces two security-relevant
    rules: [Gate] instructions may only appear in pass-generated wrapper
    functions (application code cannot forge a compartment switch,
    mirroring the CFI assumption that stray WRPKRU sequences are not
    reachable), and every register is defined on all paths before use. *)

val verify : ?hosts:(string -> bool) -> Module_ir.t -> (unit, string) result
(** [hosts] says which host (embedder-provided) functions exist; defaults
    to accepting none. *)
