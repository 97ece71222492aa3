(** The PKRU-Safe compiler passes (paper §4.1 / §4.3.1).

    Each pass mutates a module in place; {!compile} copies the source
    module first, so one source can be built into several configurations,
    just as the evaluation builds base / alloc / profiling / mpk images of
    the same program. *)

val assign_alloc_ids : Module_ir.t -> int
(** Gives every allocator call site its unique AllocId — the (function,
    block, call-site) triple.  Returns the number of sites assigned
    (Servo has 12088 of these, §5.3). *)

type stats = {
  alloc_sites : int;
  sites_instrumented : int;
  wrappers : int;
  sites_moved : int;
}

val compile :
  gates:bool ->
  instrument:bool ->
  ?profile:(Runtime.Alloc_id.t -> bool) ->
  hosts:(string -> bool) ->
  Module_ir.t ->
  (Module_ir.t * stats, string) result
(** Copy + pass pipeline + verify.  [gates]/[instrument]/[profile] map to
    the build modes: base = neither, alloc = profile only, profiling =
    gates + instrument, mpk = gates + profile. *)
