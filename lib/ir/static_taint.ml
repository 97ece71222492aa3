module Site_set = Runtime.Alloc_id.Set

type result = {
  shared : Site_set.t;
  iterations : int;
}

(* Abstract state:
     reg_sites  : (function, register) -> sites the register may hold
     contents   : site -> sites stored into objects allocated there
     returns    : function -> sites its return value may hold
     sunk       : sites passed (directly) across the boundary
   All sets grow monotonically, so a worklist-free global fixpoint
   converges. *)

type state = {
  modul : Module_ir.t;
  reg_sites : (string * int, Site_set.t) Hashtbl.t;
  contents : (Runtime.Alloc_id.t, Site_set.t) Hashtbl.t;
  returns : (string, Site_set.t) Hashtbl.t;
  mutable sunk : Site_set.t;
  mutable changed : bool;
}

let get tbl key =
  match Hashtbl.find_opt tbl key with
  | Some s -> s
  | None -> Site_set.empty

let add_to st tbl key sites =
  if not (Site_set.is_empty sites) then begin
    let old = get tbl key in
    let merged = Site_set.union old sites in
    if not (Site_set.equal old merged) then begin
      Hashtbl.replace tbl key merged;
      st.changed <- true
    end
  end

let sink st sites =
  let merged = Site_set.union st.sunk sites in
  if not (Site_set.equal st.sunk merged) then begin
    st.sunk <- merged;
    st.changed <- true
  end

let reg_key (f : Func.t) r = (f.Func.name, r)

let operand_sites st f = function
  | Instr.Imm _ -> Site_set.empty
  | Instr.Reg r -> get st.reg_sites (reg_key f r)

(* All functions an indirect call might reach: any address-taken function
   of matching arity (the paper places no restriction on function-pointer
   flow, §3.3, so neither can the analysis). *)
let indirect_targets st arity =
  Module_ir.fold_funcs st.modul
    (fun acc (g : Func.t) ->
      if g.Func.address_taken && List.length g.Func.params = arity then g :: acc else acc)
    []

let flow_call st f (callee : Func.t) dst args =
  List.iteri
    (fun i arg -> add_to st st.reg_sites (reg_key callee (List.nth callee.Func.params i))
        (operand_sites st f arg))
    args;
  (match dst with
  | Some r -> add_to st st.reg_sites (reg_key f r) (get st.returns callee.Func.name)
  | None -> ());
  (* Crossing into an untrusted crate sinks every argument. *)
  if Module_ir.is_untrusted_fn st.modul callee && not (Module_ir.is_untrusted_fn st.modul f)
  then List.iter (fun arg -> sink st (operand_sites st f arg)) args

let transfer st (f : Func.t) (instr : Instr.t) =
  match instr with
  | Instr.Const _ | Instr.Func_addr _ | Instr.Gate _ | Instr.Dealloc _ -> ()
  | Instr.Binop (_, r, a, b) ->
    (* Pointer arithmetic preserves provenance. *)
    add_to st st.reg_sites (reg_key f r)
      (Site_set.union (operand_sites st f a) (operand_sites st f b))
  | Instr.Alloc { dst; site; pool; _ } ->
    (* Only trusted-pool sources matter; U's own allocations are MU
       already. *)
    if pool = Instr.Trusted_pool then
      add_to st st.reg_sites (reg_key f dst) (Site_set.singleton site)
  | Instr.Alloca { dst; site; shared; _ } ->
    (* Stack slots of T are MT sources too (§6 extension). *)
    if not shared then add_to st st.reg_sites (reg_key f dst) (Site_set.singleton site)
  | Instr.Realloc { dst; addr; _ } ->
    (* Reallocation keeps provenance (pool-stable realloc, §4.2). *)
    add_to st st.reg_sites (reg_key f dst) (operand_sites st f addr)
  | Instr.Load { dst; addr; _ } ->
    let from = operand_sites st f addr in
    Site_set.iter
      (fun site -> add_to st st.reg_sites (reg_key f dst) (get st.contents site))
      from
  | Instr.Store { src; addr; _ } ->
    let value = operand_sites st f src in
    Site_set.iter (fun site -> add_to st st.contents site value) (operand_sites st f addr)
  | Instr.Call { dst; callee; args } ->
    (match Module_ir.find_func st.modul callee with
    | Some g -> flow_call st f g dst args
    | None -> ())
  | Instr.Call_indirect { dst; target; args } ->
    ignore target;
    List.iter (fun g -> flow_call st f g dst args) (indirect_targets st (List.length args))
  | Instr.Call_host { args; _ } -> List.iter (fun arg -> sink st (operand_sites st f arg)) args

let transfer_terminator st (f : Func.t) (term : Instr.terminator) =
  match term with
  | Instr.Ret (Some v) -> add_to st st.returns f.Func.name (operand_sites st f v)
  | Instr.Ret None | Instr.Br _ | Instr.Cond_br _ -> ()

(* Anything reachable by loads out of a shared object is itself shared:
   once U holds a pointer it can chase interior pointers freely. *)
let reachability_closure st =
  let rec grow shared =
    let next =
      Site_set.fold
        (fun site acc -> Site_set.union acc (get st.contents site))
        shared shared
    in
    if Site_set.equal next shared then shared else grow next
  in
  grow st.sunk

(* Mark address-taken functions so indirect-call targets are known even
   when the gate pass (which normally resolves function addresses) has not
   run on this module. *)
let mark_address_taken modul =
  Module_ir.iter_funcs modul (fun f ->
      Func.iter_instrs f (fun _ instr ->
          match instr with
          | Instr.Func_addr (_, name) ->
            (match Module_ir.find_func modul name with
            | Some g -> g.Func.address_taken <- true
            | None -> ())
          | _ -> ()))

let analyze modul =
  mark_address_taken modul;
  let st =
    {
      modul;
      reg_sites = Hashtbl.create 256;
      contents = Hashtbl.create 64;
      returns = Hashtbl.create 64;
      sunk = Site_set.empty;
      changed = true;
    }
  in
  let iterations = ref 0 in
  while st.changed do
    st.changed <- false;
    incr iterations;
    Module_ir.iter_funcs modul (fun f ->
        Array.iter
          (fun (b : Func.block) ->
            List.iter (transfer st f) b.Func.instrs;
            transfer_terminator st f b.Func.term)
          f.Func.blocks)
  done;
  { shared = reachability_closure st; iterations = !iterations }
