type building_block = {
  id : int;
  mutable rev_instrs : Instr.t list;
  mutable term : Instr.terminator option;
}

type t = {
  name : string;
  crate : string;
  exported : bool;
  nparams : int;
  mutable next_reg : int;
  mutable blocks : building_block list; (* reverse order *)
  mutable current : building_block;
}

let create ~name ~crate ~nparams ?(exported = false) () =
  let entry = { id = 0; rev_instrs = []; term = None } in
  { name; crate; exported; nparams; next_reg = nparams; blocks = [ entry ]; current = entry }

let params t = List.init t.nparams Fun.id

let fresh t =
  let r = t.next_reg in
  t.next_reg <- r + 1;
  r

let new_block t =
  let id = List.length t.blocks in
  t.blocks <- { id; rev_instrs = []; term = None } :: t.blocks;
  id

let switch_to t id =
  match List.find_opt (fun b -> b.id = id) t.blocks with
  | Some b -> t.current <- b
  | None -> invalid_arg (Printf.sprintf "Builder.switch_to: no block %d" id)

let emit t i =
  if t.current.term <> None then
    invalid_arg (Printf.sprintf "Builder: emitting into terminated block %d" t.current.id);
  t.current.rev_instrs <- i :: t.current.rev_instrs

let const t v =
  let r = fresh t in
  emit t (Instr.Const (r, v));
  r

let binop t op a b =
  let r = fresh t in
  emit t (Instr.Binop (op, r, a, b));
  r

let load t ?(width = 8) addr =
  let dst = fresh t in
  emit t (Instr.Load { dst; addr; width });
  dst

let store t ?(width = 8) ~src ~addr () = emit t (Instr.Store { src; addr; width })

(* Fresh Alloc instructions carry a placeholder site; the AllocId pass
   assigns the real one. *)
let alloc t size =
  let dst = fresh t in
  emit t
    (Instr.Alloc
       {
         dst;
         size;
         site = Runtime.Alloc_id.make ~func_id:(-2) ~block_id:(-2) ~call_id:(-2);
         pool = Instr.Trusted_pool;
         instrumented = false;
       });
  dst

let alloca t size =
  let dst = fresh t in
  emit t
    (Instr.Alloca
       {
         dst;
         size;
         site = Runtime.Alloc_id.make ~func_id:(-2) ~block_id:(-2) ~call_id:(-2);
         shared = false;
         instrumented = false;
       });
  dst

let realloc t ~addr ~size =
  let dst = fresh t in
  emit t (Instr.Realloc { dst; addr; size });
  dst

let with_ret t ret make =
  let dst = if ret then Some (fresh t) else None in
  emit t (make dst);
  dst

let call t ?(ret = false) callee args =
  with_ret t ret (fun dst -> Instr.Call { dst; callee; args })

let call_indirect t ?(ret = false) target args =
  with_ret t ret (fun dst -> Instr.Call_indirect { dst; target; args })

let func_addr t name =
  let r = fresh t in
  emit t (Instr.Func_addr (r, name));
  r

let call_host t ?(ret = false) host args =
  with_ret t ret (fun dst -> Instr.Call_host { dst; host; args })

let terminate t term =
  if t.current.term <> None then
    invalid_arg (Printf.sprintf "Builder: block %d already terminated" t.current.id);
  t.current.term <- Some term

let ret t v = terminate t (Instr.Ret v)
let br t b = terminate t (Instr.Br b)
let cond_br t c a b = terminate t (Instr.Cond_br (c, a, b))

let finish t =
  let blocks =
    List.sort (fun a b -> Int.compare a.id b.id) t.blocks
    |> List.map (fun b ->
           match b.term with
           | None -> invalid_arg (Printf.sprintf "Builder.finish: block %d unterminated" b.id)
           | Some term ->
             { Func.block_id = b.id; instrs = List.rev b.rev_instrs; term })
    |> Array.of_list
  in
  Func.create ~name:t.name ~crate:t.crate ~params:(params t) ~exported:t.exported blocks
