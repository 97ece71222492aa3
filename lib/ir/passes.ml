let assign_alloc_ids m =
  let count = ref 0 in
  let func_id = ref 0 in
  Module_ir.iter_funcs m (fun f ->
      Array.iter
        (fun (b : Func.block) ->
          let call_id = ref 0 in
          List.iter
            (fun instr ->
              match instr with
              | Instr.Alloc a ->
                a.site <-
                  Runtime.Alloc_id.make ~func_id:!func_id ~block_id:b.Func.block_id
                    ~call_id:!call_id;
                incr call_id;
                incr count
              | Instr.Alloca a ->
                a.site <-
                  Runtime.Alloc_id.make ~func_id:!func_id ~block_id:b.Func.block_id
                    ~call_id:!call_id;
                incr call_id;
                incr count
              | _ -> ())
            b.Func.instrs)
        f.Func.blocks;
      incr func_id);
  !count

(* Give every address-taken function its table slot before gate insertion,
   so the gate pass can see and retarget all captured addresses. *)
let resolve_func_addrs m =
  Module_ir.iter_funcs m (fun f ->
      Func.iter_instrs f (fun _ instr ->
          match instr with
          | Instr.Func_addr (_, name) -> ignore (Module_ir.func_index m name)
          | _ -> ()))

(* Allocations made by untrusted code are U's own malloc and always come
   from MU, in every configuration. *)
let lower_untrusted_allocs m =
  Module_ir.iter_funcs m (fun f ->
      if Module_ir.is_untrusted_fn m f then
        Func.iter_instrs f (fun _ instr ->
            match instr with
            | Instr.Alloc a -> a.pool <- Instr.Untrusted_pool
            (* U's own stack frames live in untrusted memory. *)
            | Instr.Alloca a -> a.shared <- true
            | _ -> ()))

(* Marks every trusted allocation site for runtime provenance tracking
   (the inserted [log_alloc] callbacks of Fig. 2).  Returns the number of
   sites instrumented. *)
let instrument_provenance m =
  let count = ref 0 in
  Module_ir.iter_funcs m (fun f ->
      if not (Module_ir.is_untrusted_fn m f) then
        Func.iter_instrs f (fun _ instr ->
            match instr with
            | Instr.Alloc a ->
              a.instrumented <- true;
              incr count
            | Instr.Alloca a ->
              a.instrumented <- true;
              incr count
            | _ -> ()))
  ;
  !count

(* --- Gate insertion --- *)

let gate_wrapper_name callee = "__pkru_gate$" ^ callee
let entry_wrapper_name callee = "__pkru_entry$" ^ callee
let gates_crate = "__pkru_gates"

(* A wrapper has one block: enter gate, forward the call, exit gate, return
   the callee's result. *)
let make_wrapper ~name ~enter ~exit ~callee (target : Func.t) =
  let nparams = List.length target.Func.params in
  let params = List.init nparams Fun.id in
  let result = nparams in
  let body =
    [
      Instr.Gate enter;
      Instr.Call { dst = Some result; callee; args = List.map (fun r -> Instr.Reg r) params };
      Instr.Gate exit;
    ]
  in
  let block = { Func.block_id = 0; instrs = body; term = Instr.Ret (Some (Instr.Reg result)) } in
  let f = Func.create ~name ~crate:gates_crate ~params [| block |] in
  f.Func.is_wrapper <- true;
  f

(* Wraps the compartment boundary: every direct T->U call is rewritten to
   a generated wrapper that drops MT access around the callee; every
   exported or address-taken T function gets an entry wrapper restoring
   MT access, and the indirect-call table is retargeted to it;
   address-taken U functions get exit wrappers, so function pointers
   flowing from U into T still transition correctly when invoked.
   Returns the number of wrappers created (the prototype "automatically
   creates hundreds of callgates"). *)
let insert_gates m =
  Module_ir.declare_crate m gates_crate;
  let wrappers = ref 0 in
  let ensure_wrapper ~name ~enter ~exit callee =
    match Module_ir.find_func m name with
    | Some _ -> ()
    | None ->
      let target = Module_ir.func m callee in
      Module_ir.add_func m (make_wrapper ~name ~enter ~exit ~callee target);
      incr wrappers
  in
  let ensure_gate_wrapper callee =
    ensure_wrapper ~name:(gate_wrapper_name callee) ~enter:Instr.Enter_untrusted
      ~exit:Instr.Exit_untrusted callee
  in
  let ensure_entry_wrapper callee =
    ensure_wrapper ~name:(entry_wrapper_name callee) ~enter:Instr.Enter_trusted
      ~exit:Instr.Exit_trusted callee
  in
  (* Rewrite direct cross-compartment calls.  Collect function names first:
     adding wrappers while iterating would invalidate the traversal. *)
  let originals = Module_ir.fold_funcs m (fun acc f -> f :: acc) [] in
  List.iter
    (fun (f : Func.t) ->
      let caller_untrusted = Module_ir.is_untrusted_fn m f in
      Func.iter_instrs f (fun _ instr ->
          match instr with
          | Instr.Call c ->
            (match Module_ir.find_func m c.callee with
            | None -> ()
            | Some callee ->
              let callee_untrusted = Module_ir.is_untrusted_fn m callee in
              if (not caller_untrusted) && callee_untrusted then begin
                ensure_gate_wrapper c.callee;
                c.callee <- gate_wrapper_name c.callee
              end
              else if caller_untrusted && not callee_untrusted then begin
                ensure_entry_wrapper c.callee;
                c.callee <- entry_wrapper_name c.callee
              end)
          | _ -> ()))
    originals;
  (* Retarget the indirect-call table: address-taken T functions go through
     entry wrappers ("we instrument all address-taken and externally
     visible APIs from T which may be called from U"), address-taken U
     functions through exit gates so T-held function pointers into U also
     transition. *)
  let rec retarget i =
    match Module_ir.func_table_entry m i with
    | None -> ()
    | Some name ->
      let target = Module_ir.func m name in
      if not target.Func.is_wrapper then begin
        if Module_ir.is_untrusted_fn m target then begin
          ensure_gate_wrapper name;
          Module_ir.retarget_entry m ~index:i (gate_wrapper_name name)
        end
        else begin
          ensure_entry_wrapper name;
          Module_ir.retarget_entry m ~index:i (entry_wrapper_name name)
        end
      end;
      retarget (i + 1)
  in
  retarget 0;
  (* Exported T functions get entry wrappers too, even if no direct U call
     is visible at compile time. *)
  List.iter
    (fun (f : Func.t) ->
      if f.Func.exported && not (Module_ir.is_untrusted_fn m f) && not f.Func.is_wrapper then
        ensure_entry_wrapper f.Func.name)
    originals;
  !wrappers

(* Retargets every trusted allocation site the profile recorded to
   [__rust_untrusted_alloc].  Returns the number of sites moved (274 of
   Servo's 12088, paper section 5.3). *)
let apply_profile m ~in_profile =
  let moved = ref 0 in
  Module_ir.iter_funcs m (fun f ->
      if not (Module_ir.is_untrusted_fn m f) then
        Func.iter_instrs f (fun _ instr ->
            match instr with
            | Instr.Alloc a when in_profile a.site ->
              if a.pool = Instr.Trusted_pool then begin
                a.pool <- Instr.Untrusted_pool;
                incr moved
              end
            | Instr.Alloca a when in_profile a.site ->
              if not a.shared then begin
                a.shared <- true;
                incr moved
              end
            | _ -> ()));
  !moved

type stats = {
  alloc_sites : int;
  sites_instrumented : int;
  wrappers : int;
  sites_moved : int;
}

let compile ~gates ~instrument ?profile ~hosts m =
  let m = Module_ir.copy m in
  let alloc_sites = assign_alloc_ids m in
  resolve_func_addrs m;
  lower_untrusted_allocs m;
  let sites_instrumented = if instrument then instrument_provenance m else 0 in
  let wrappers = if gates then insert_gates m else 0 in
  let sites_moved =
    match profile with
    | Some in_profile -> apply_profile m ~in_profile
    | None -> 0
  in
  match Verifier.verify ~hosts m with
  | Error _ as e -> e
  | Ok () -> Ok (m, { alloc_sites; sites_instrumented; wrappers; sites_moved })
