type host_fn = int list -> int

exception Trap of string

type t = {
  modul : Ir.Module_ir.t;
  env : Pkru_safe.Env.t;
  hosts : (string, host_fn) Hashtbl.t;
  mutable fuel : int;
  mutable steps : int;
  mutable stack_sp : int; (* bump pointer into the trusted stack region *)
}

let create ?(fuel = 500_000_000) modul env =
  (* T's stack is part of MT (§6 stack-protection extension): the region
     carries the trusted key, so U faults on unprofiled stack slots just
     like on heap objects. *)
  let machine = Pkru_safe.Env.machine env in
  if not (Vmm.Page_table.is_reserved machine.Sim.Machine.page_table Vmm.Layout.stack_base) then begin
    match
      Vmm.Page_table.reserve machine.Sim.Machine.page_table ~base:Vmm.Layout.stack_base
        ~size:Vmm.Layout.stack_size ~prot:Vmm.Prot.read_write
        ~pkey:Mpk.Pkey.trusted
    with
    | Ok () -> ()
    | Error msg -> raise (Trap ("stack reservation failed: " ^ msg))
  end;
  { modul; env; hosts = Hashtbl.create 16; fuel; steps = 0; stack_sp = Vmm.Layout.stack_base }

let register_host t name fn = Hashtbl.replace t.hosts name fn

let modul t = t.modul

let () =
  Printexc.register_printer (function
    | Trap msg -> Some ("Interp.Trap: " ^ msg)
    | _ -> None)

let truncate_to width v =
  match width with
  | 8 -> v
  | 1 -> v land 0xFF
  | 2 -> v land 0xFFFF
  | 4 -> v land 0xFFFFFFFF
  | _ -> assert false

let rec call t (f : Ir.Func.t) args =
  let machine = Pkru_safe.Env.machine t.env in
  let saved_sp = t.stack_sp in
  (* (address, heap-demoted, instrumented) of this frame's allocas. *)
  let frame_allocas : (int * bool * bool) list ref = ref [] in
  let cpu = machine.Sim.Machine.cpu in
  let cost = cpu.Sim.Cpu.cost in
  let regs = Array.make (max f.Ir.Func.frame_size 1) 0 in
  List.iteri
    (fun i param ->
      match List.nth_opt args i with
      | Some v -> regs.(param) <- v
      | None -> raise (Trap (Printf.sprintf "%s: missing argument %d" f.Ir.Func.name i)))
    f.Ir.Func.params;
  let value = function
    | Ir.Instr.Imm v -> v
    | Ir.Instr.Reg r -> regs.(r)
  in
  let tick () =
    t.steps <- t.steps + 1;
    t.fuel <- t.fuel - 1;
    if t.fuel <= 0 then raise (Trap "out of fuel")
  in
  let exec_binop op a b =
    let open Ir.Instr in
    match op with
    | Add -> Sim.Cpu.charge cpu cost.Sim.Cost.alu; a + b
    | Sub -> Sim.Cpu.charge cpu cost.Sim.Cost.alu; a - b
    | And -> Sim.Cpu.charge cpu cost.Sim.Cost.alu; a land b
    | Or -> Sim.Cpu.charge cpu cost.Sim.Cost.alu; a lor b
    | Xor -> Sim.Cpu.charge cpu cost.Sim.Cost.alu; a lxor b
    | Shl -> Sim.Cpu.charge cpu cost.Sim.Cost.alu; a lsl (b land 63)
    | Shr -> Sim.Cpu.charge cpu cost.Sim.Cost.alu; a asr (b land 63)
    | Mul -> Sim.Cpu.charge cpu cost.Sim.Cost.mul; a * b
    | Div ->
      Sim.Cpu.charge cpu cost.Sim.Cost.div;
      if b = 0 then raise (Trap "division by zero") else a / b
    | Rem ->
      Sim.Cpu.charge cpu cost.Sim.Cost.div;
      if b = 0 then raise (Trap "remainder by zero") else a mod b
    | Eq -> Sim.Cpu.charge cpu cost.Sim.Cost.alu; if a = b then 1 else 0
    | Ne -> Sim.Cpu.charge cpu cost.Sim.Cost.alu; if a <> b then 1 else 0
    | Lt -> Sim.Cpu.charge cpu cost.Sim.Cost.alu; if a < b then 1 else 0
    | Le -> Sim.Cpu.charge cpu cost.Sim.Cost.alu; if a <= b then 1 else 0
    | Gt -> Sim.Cpu.charge cpu cost.Sim.Cost.alu; if a > b then 1 else 0
    | Ge -> Sim.Cpu.charge cpu cost.Sim.Cost.alu; if a >= b then 1 else 0
  in
  let do_alloc pool size =
    Sim.Cpu.charge cpu cost.Sim.Cost.call;
    let pk = Pkru_safe.Env.pkalloc t.env in
    let result =
      match pool with
      | Ir.Instr.Trusted_pool -> Allocators.Pkalloc.alloc_trusted pk size
      | Ir.Instr.Untrusted_pool -> Allocators.Pkalloc.alloc_untrusted pk size
    in
    match result with
    | None -> raise Out_of_memory
    | Some addr -> addr
  in
  let exec_instr (instr : Ir.Instr.t) =
    tick ();
    match instr with
    | Ir.Instr.Const (r, v) ->
      Sim.Cpu.charge cpu cost.Sim.Cost.alu;
      regs.(r) <- v
    | Ir.Instr.Binop (op, r, a, b) -> regs.(r) <- exec_binop op (value a) (value b)
    | Ir.Instr.Load { dst; addr; width } ->
      let a = value addr in
      regs.(dst) <-
        (match width with
        | 1 -> Sim.Machine.read_u8 machine a
        | 2 -> Sim.Machine.read_u16 machine a
        | 4 -> Sim.Machine.read_u32 machine a
        | _ -> Sim.Machine.read_u64 machine a)
    | Ir.Instr.Store { src; addr; width } ->
      let a = value addr in
      let v = truncate_to width (value src) in
      (match width with
      | 1 -> Sim.Machine.write_u8 machine a v
      | 2 -> Sim.Machine.write_u16 machine a v
      | 4 -> Sim.Machine.write_u32 machine a v
      | _ -> Sim.Machine.write_u64 machine a v)
    | Ir.Instr.Alloc { dst; size; site; pool; instrumented } ->
      let size = value size in
      let addr = do_alloc pool size in
      (* The provenance pass made this site call back into the tracking
         runtime (Fig. 2 step 1). *)
      if instrumented then begin
        match Pkru_safe.Env.profiler t.env with
        | Some p -> Runtime.Profiler.log_alloc p ~alloc_id:site ~addr ~size
        | None -> ()
      end;
      regs.(dst) <- addr
    | Ir.Instr.Alloca { dst; size; site; shared; instrumented } ->
      let size = value size in
      let addr =
        if shared then begin
          (* Demoted to a frame-lifetime MU heap allocation. *)
          Sim.Cpu.charge cpu cost.Sim.Cost.call;
          Pkru_safe.Env.malloc_untrusted t.env size
        end
        else begin
          Sim.Cpu.charge cpu cost.Sim.Cost.alu;
          let aligned = (size + 15) land lnot 15 in
          if t.stack_sp + aligned > Vmm.Layout.stack_base + Vmm.Layout.stack_size then
            raise (Trap "stack overflow");
          let a = t.stack_sp in
          t.stack_sp <- t.stack_sp + aligned;
          a
        end
      in
      if instrumented then begin
        match Pkru_safe.Env.profiler t.env with
        | Some p -> Runtime.Profiler.log_alloc p ~alloc_id:site ~addr ~size
        | None -> ()
      end;
      frame_allocas := (addr, shared, instrumented) :: !frame_allocas;
      regs.(dst) <- addr
    | Ir.Instr.Dealloc addr ->
      Sim.Cpu.charge cpu cost.Sim.Cost.call;
      Pkru_safe.Env.dealloc t.env (value addr)
    | Ir.Instr.Realloc { dst; addr; size } ->
      Sim.Cpu.charge cpu cost.Sim.Cost.call;
      regs.(dst) <- Pkru_safe.Env.realloc t.env (value addr) (value size)
    | Ir.Instr.Call { dst; callee; args } ->
      Sim.Cpu.charge cpu cost.Sim.Cost.call;
      let f =
        match Ir.Module_ir.find_func t.modul callee with
        | Some f -> f
        | None -> raise (Trap ("call to unknown function " ^ callee))
      in
      let result = call t f (List.map value args) in
      Sim.Cpu.charge cpu cost.Sim.Cost.ret;
      (match dst with
      | Some r -> regs.(r) <- result
      | None -> ())
    | Ir.Instr.Call_indirect { dst; target; args } ->
      Sim.Cpu.charge cpu cost.Sim.Cost.call_indirect;
      let index = value target in
      let f =
        match Ir.Module_ir.func_table_entry t.modul index with
        | Some name -> Ir.Module_ir.func t.modul name
        | None -> raise (Trap (Printf.sprintf "indirect call to bad target %d" index))
      in
      let result = call t f (List.map value args) in
      Sim.Cpu.charge cpu cost.Sim.Cost.ret;
      (match dst with
      | Some r -> regs.(r) <- result
      | None -> ())
    | Ir.Instr.Func_addr (r, name) ->
      Sim.Cpu.charge cpu cost.Sim.Cost.alu;
      (match Ir.Module_ir.find_index t.modul name with
      | Some index -> regs.(r) <- index
      | None -> raise (Trap ("func_addr without table slot: " ^ name)))
    | Ir.Instr.Call_host { dst; host; args } ->
      Sim.Cpu.charge cpu cost.Sim.Cost.call;
      let fn =
        match Hashtbl.find_opt t.hosts host with
        | Some fn -> fn
        | None -> raise (Trap ("unknown host function " ^ host))
      in
      let result = fn (List.map value args) in
      Sim.Cpu.charge cpu cost.Sim.Cost.ret;
      (match dst with
      | Some r -> regs.(r) <- result
      | None -> ())
    | Ir.Instr.Gate op ->
      let gate = Pkru_safe.Env.gate t.env in
      (match op with
      | Ir.Instr.Enter_untrusted -> Runtime.Gate.enter_untrusted gate
      | Ir.Instr.Exit_untrusted -> Runtime.Gate.exit_untrusted gate
      | Ir.Instr.Enter_trusted -> Runtime.Gate.enter_trusted gate
      | Ir.Instr.Exit_trusted -> Runtime.Gate.exit_trusted gate)
  in
  let rec run_block (block : Ir.Func.block) =
    List.iter exec_instr block.Ir.Func.instrs;
    tick ();
    Sim.Cpu.charge cpu cost.Sim.Cost.branch;
    match block.Ir.Func.term with
    | Ir.Instr.Ret None -> 0
    | Ir.Instr.Ret (Some v) -> value v
    | Ir.Instr.Br b -> run_block (Ir.Func.block f b)
    | Ir.Instr.Cond_br (c, a, b) ->
      run_block (Ir.Func.block f (if value c <> 0 then a else b))
  in
  let unwind_frame () =
    List.iter
      (fun (addr, heap_demoted, instrumented) ->
        if heap_demoted then Pkru_safe.Env.dealloc t.env addr
        else if instrumented then begin
          match Pkru_safe.Env.profiler t.env with
          | Some p -> Runtime.Profiler.log_dealloc p ~addr
          | None -> ()
        end)
      !frame_allocas;
    t.stack_sp <- saved_sp
  in
  Fun.protect ~finally:unwind_frame (fun () -> run_block f.Ir.Func.blocks.(0))

let run t name args =
  match Ir.Module_ir.find_func t.modul name with
  | None -> raise (Trap ("no such entry function: " ^ name))
  | Some f ->
    let machine = Pkru_safe.Env.machine t.env in
    Sim.Cpu.charge machine.Sim.Machine.cpu machine.Sim.Machine.cpu.Sim.Cpu.cost.Sim.Cost.call;
    call t f args
