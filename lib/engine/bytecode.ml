(* Stack bytecode.  Compilation is a straightforward syntax-directed
   lowering; the only subtleties are (a) scope bookkeeping — blocks and
   for-loops open scopes, and break/continue must pop the scopes they jump
   out of — and (b) assignment being an expression, so stores keep the
   stored value on the stack. *)

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

(* --- Compiler ---

   Labels are pseudo-instructions during emission, resolved to absolute
   indices in a second pass.  The loop context carries break/continue
   targets plus the scope depth at loop entry, so the jumps unwind the
   block scopes they exit. *)
type emitted =
  | Ins of instr
  | Label of int
  | Jmp of int
  | Jmp_if_false of int
  | Jmp_if_false_peek of int
  | Jmp_if_true_peek of int

type ectx = {
  mutable ebuf : emitted array; (* growable, in emission order *)
  mutable elen : int;
  mutable labels : int;
  mutable eloops : (int * int * int) list; (* (break_lbl, continue_lbl, depth) *)
  mutable edepth : int;
}

(* Append into a growable buffer.  (This used to prepend to a list that
   [assemble] then reversed twice; a doubling array keeps emission O(1)
   amortised and lets assembly run a single forward pass.) *)
let emit c e =
  let cap = Array.length c.ebuf in
  if c.elen >= cap then begin
    let bigger = Array.make (max 32 (2 * cap)) e in
    Array.blit c.ebuf 0 bigger 0 c.elen;
    c.ebuf <- bigger
  end;
  c.ebuf.(c.elen) <- e;
  c.elen <- c.elen + 1

let fresh_label c =
  c.labels <- c.labels + 1;
  c.labels - 1

let rec compile_expr c (e : Ast.expr) =
  match e with
  | Ast.Num f -> emit c (Ins (Push_num f))
  | Ast.Str s -> emit c (Ins (Push_str s))
  | Ast.Bool b -> emit c (Ins (Push_bool b))
  | Ast.Null -> emit c (Ins Push_null)
  | Ast.Ident name -> emit c (Ins (Load_var name))
  | Ast.Array_lit items ->
    List.iter (compile_expr c) items;
    emit c (Ins (Make_array (List.length items)))
  | Ast.Object_lit fields ->
    List.iter (fun (_, v) -> compile_expr c v) fields;
    emit c (Ins (Make_object (List.map fst fields)))
  | Ast.Func_lit (params, body) -> emit c (Ins (Make_closure (Eval.func ~params ~body)))
  | Ast.Unary (op, e) ->
    compile_expr c e;
    emit c (Ins (Un_op op))
  | Ast.Binary ("&&", a, b) ->
    let l = fresh_label c in
    compile_expr c a;
    emit c (Jmp_if_false_peek l);
    emit c (Ins Pop);
    compile_expr c b;
    emit c (Label l)
  | Ast.Binary ("||", a, b) ->
    let l = fresh_label c in
    compile_expr c a;
    emit c (Jmp_if_true_peek l);
    emit c (Ins Pop);
    compile_expr c b;
    emit c (Label l)
  | Ast.Binary (op, a, b) ->
    compile_expr c a;
    compile_expr c b;
    emit c (Ins (Bin_op op))
  | Ast.Ternary (cond, a, b) ->
    let l_else = fresh_label c in
    let l_end = fresh_label c in
    compile_expr c cond;
    emit c (Jmp_if_false l_else);
    compile_expr c a;
    emit c (Jmp l_end);
    emit c (Label l_else);
    compile_expr c b;
    emit c (Label l_end)
  | Ast.Assign (op, lhs, rhs) -> compile_assign c op lhs rhs
  | Ast.Index (a, i) ->
    compile_expr c a;
    compile_expr c i;
    emit c (Ins Load_index)
  | Ast.Member (e, name) ->
    compile_expr c e;
    emit c (Ins (Load_member name))
  | Ast.Method_call (Ast.Ident (("Math" | "JSON" | "String") as ns), name, args) ->
    List.iter (compile_expr c) args;
    emit c (Ins (Ns_call (ns, name, List.length args)))
  | Ast.Method_call (recv, name, args) ->
    compile_expr c recv;
    List.iter (compile_expr c) args;
    emit c (Ins (Method_call (name, List.length args)))
  | Ast.Call (Ast.Ident "print", args) ->
    List.iter (compile_expr c) args;
    emit c (Ins (Print_op (List.length args)))
  | Ast.Call (Ast.Ident "__new_array", [ n ]) ->
    compile_expr c n;
    emit c (Ins New_array_op)
  | Ast.Call (callee, args) ->
    compile_expr c callee;
    List.iter (compile_expr c) args;
    emit c (Ins (Call_top (List.length args)))

and compile_assign c op lhs rhs =
  match lhs with
  | Ast.Ident name ->
    if op = "=" then compile_expr c rhs
    else begin
      emit c (Ins (Load_var name));
      compile_expr c rhs;
      emit c (Ins (Bin_op (String.sub op 0 1)))
    end;
    emit c (Ins (Store_var name))
  | Ast.Index (a, i) ->
    compile_expr c a;
    compile_expr c i;
    if op = "=" then compile_expr c rhs
    else begin
      emit c (Ins Dup2);
      emit c (Ins Load_index);
      compile_expr c rhs;
      emit c (Ins (Bin_op (String.sub op 0 1)))
    end;
    emit c (Ins Store_index_keep)
  | Ast.Member (e, name) ->
    compile_expr c e;
    if op = "=" then compile_expr c rhs
    else begin
      emit c (Ins Dup);
      emit c (Ins (Load_member name));
      compile_expr c rhs;
      emit c (Ins (Bin_op (String.sub op 0 1)))
    end;
    emit c (Ins (Store_member_keep name))
  | _ -> Eval.fail "invalid assignment target"

and compile_stmt c (s : Ast.stmt) =
  match s with
  | Ast.Expr e ->
    compile_expr c e;
    emit c (Ins Pop)
  | Ast.Var (name, init) ->
    compile_expr c init;
    emit c (Ins (Decl_var name))
  | Ast.Func_decl (name, params, body) ->
    emit c (Ins (Make_closure (Eval.func ~params ~body)));
    emit c (Ins (Decl_var name))
  | Ast.If (cond, then_, else_) ->
    let l_else = fresh_label c in
    let l_end = fresh_label c in
    compile_expr c cond;
    emit c (Jmp_if_false l_else);
    List.iter (compile_stmt c) then_;
    emit c (Jmp l_end);
    emit c (Label l_else);
    List.iter (compile_stmt c) else_;
    emit c (Label l_end)
  | Ast.While (cond, body) ->
    let l_head = fresh_label c in
    let l_end = fresh_label c in
    emit c (Label l_head);
    compile_expr c cond;
    emit c (Jmp_if_false l_end);
    c.eloops <- (l_end, l_head, c.edepth) :: c.eloops;
    List.iter (compile_stmt c) body;
    c.eloops <- List.tl c.eloops;
    emit c (Jmp l_head);
    emit c (Label l_end)
  | Ast.For (init, cond, step, body) ->
    (* The for statement opens its own scope, like the AST tier. *)
    emit c (Ins Push_scope);
    c.edepth <- c.edepth + 1;
    (match init with
    | Some s -> compile_stmt c s
    | None -> ());
    let l_head = fresh_label c in
    let l_step = fresh_label c in
    let l_end = fresh_label c in
    emit c (Label l_head);
    (match cond with
    | Some e ->
      compile_expr c e;
      emit c (Jmp_if_false l_end)
    | None -> ());
    c.eloops <- (l_end, l_step, c.edepth) :: c.eloops;
    List.iter (compile_stmt c) body;
    c.eloops <- List.tl c.eloops;
    emit c (Label l_step);
    (match step with
    | Some s -> compile_stmt c s
    | None -> ());
    emit c (Jmp l_head);
    emit c (Label l_end);
    emit c (Ins Pop_scope);
    c.edepth <- c.edepth - 1
  | Ast.Return v ->
    (match v with
    | Some e ->
      compile_expr c e;
      emit c (Ins Ret)
    | None -> emit c (Ins Ret_null))
  | Ast.Break ->
    (match c.eloops with
    | (l_break, _, depth) :: _ ->
      if c.edepth > depth then emit c (Ins (Pop_scopes (c.edepth - depth)));
      emit c (Jmp l_break)
    | [] -> Eval.fail "break outside a loop")
  | Ast.Continue ->
    (match c.eloops with
    | (_, l_continue, depth) :: _ ->
      if c.edepth > depth then emit c (Ins (Pop_scopes (c.edepth - depth)));
      emit c (Jmp l_continue)
    | [] -> Eval.fail "continue outside a loop")
  | Ast.Block body ->
    emit c (Ins Push_scope);
    c.edepth <- c.edepth + 1;
    List.iter (compile_stmt c) body;
    emit c (Ins Pop_scope);
    c.edepth <- c.edepth - 1

(* Resolve labels to absolute indices: one forward pass to place labels,
   one to write instructions straight into a pre-sized array. *)
let assemble c : instr array =
  let positions = Hashtbl.create 16 in
  let pc = ref 0 in
  for i = 0 to c.elen - 1 do
    match c.ebuf.(i) with
    | Label l -> Hashtbl.replace positions l !pc
    | Ins _ | Jmp _ | Jmp_if_false _ | Jmp_if_false_peek _ | Jmp_if_true_peek _ -> incr pc
  done;
  let target l =
    match Hashtbl.find_opt positions l with
    | Some p -> p
    | None -> Eval.fail "unresolved label %d" l
  in
  let out = Array.make !pc Ret_null in
  let j = ref 0 in
  let put i =
    out.(!j) <- i;
    incr j
  in
  for i = 0 to c.elen - 1 do
    match c.ebuf.(i) with
    | Label _ -> ()
    | Ins i -> put i
    | Jmp l -> put (Jump (target l))
    | Jmp_if_false l -> put (Jump_if_false (target l))
    | Jmp_if_false_peek l -> put (Jump_if_false_peek (target l))
    | Jmp_if_true_peek l -> put (Jump_if_true_peek (target l))
  done;
  out

let compile_body (stmts : Ast.stmt list) ~toplevel =
  let c = { ebuf = [||]; elen = 0; labels = 0; eloops = []; edepth = 0 } in
  (* Top level: the value of the last expression statement is the result. *)
  let rec walk = function
    | [] -> emit c (Ins Ret_null)
    | [ Ast.Expr e ] when toplevel ->
      compile_expr c e;
      emit c (Ins Ret)
    | s :: rest ->
      compile_stmt c s;
      walk rest
  in
  walk stmts;
  assemble c

let compile (prog : Ast.program) : program = { top = compile_body prog ~toplevel:true }

(* --- Disassembler --- *)

let instr_to_string = function
  | Push_num f -> Printf.sprintf "push_num %g" f
  | Push_bool b -> Printf.sprintf "push_bool %b" b
  | Push_null -> "push_null"
  | Push_str s -> Printf.sprintf "push_str %S" s
  | Load_var v -> "load " ^ v
  | Store_var v -> "store " ^ v
  | Decl_var v -> "decl " ^ v
  | Pop -> "pop"
  | Dup -> "dup"
  | Dup2 -> "dup2"
  | Bin_op op -> "binop " ^ op
  | Un_op op -> "unop " ^ op
  | Jump t -> Printf.sprintf "jump %d" t
  | Jump_if_false t -> Printf.sprintf "jump_if_false %d" t
  | Jump_if_false_peek t -> Printf.sprintf "jump_if_false_peek %d" t
  | Jump_if_true_peek t -> Printf.sprintf "jump_if_true_peek %d" t
  | Load_index -> "load_index"
  | Store_index_keep -> "store_index"
  | Load_member m -> "load_member " ^ m
  | Store_member_keep m -> "store_member " ^ m
  | Call_top n -> Printf.sprintf "call %d" n
  | Method_call (m, n) -> Printf.sprintf "method_call %s/%d" m n
  | Ns_call (ns, m, n) -> Printf.sprintf "ns_call %s.%s/%d" ns m n
  | Print_op n -> Printf.sprintf "print %d" n
  | New_array_op -> "new_array"
  | Make_array n -> Printf.sprintf "make_array %d" n
  | Make_object keys -> "make_object {" ^ String.concat "," keys ^ "}"
  | Make_closure fn -> Printf.sprintf "make_closure (%s)" (String.concat "," (Eval.func_params fn))
  | Push_scope -> "push_scope"
  | Pop_scope -> "pop_scope"
  | Pop_scopes n -> Printf.sprintf "pop_scopes %d" n
  | Ret -> "ret"
  | Ret_null -> "ret_null"

let disassemble p =
  let buf = Buffer.create 256 in
  Array.iteri
    (fun i instr -> Buffer.add_string buf (Printf.sprintf "%4d  %s\n" i (instr_to_string instr)))
    p.top;
  Buffer.contents buf

(* --- VM --- *)

exception Vm_return of Value.t

(* Closures made by the VM register in the shared closure table (so the
   AST tier can call them); the VM remembers which closure ids it minted
   and caches compiled bodies, keyed by the body itself, so a closure
   created repeatedly in a loop compiles once. *)
type vm = {
  eval : Eval.t;
  vm_closures : (int, Eval.func) Hashtbl.t;
  code_cache : (Ast.stmt list, instr array) Hashtbl.t;
}

(* A function body is never "toplevel": its result comes only from return
   statements. *)
let body_code vm body =
  match Hashtbl.find_opt vm.code_cache body with
  | Some code -> code
  | None ->
    let code = compile_body body ~toplevel:false in
    Hashtbl.replace vm.code_cache body code;
    code

let rec exec vm (code : instr array) scope0 =
  let t = vm.eval in
  let stack = ref [] in
  let scopes = ref [ scope0 ] in
  let push v = stack := v :: !stack in
  let pop () =
    match !stack with
    | v :: rest ->
      stack := rest;
      v
    | [] -> Eval.fail "vm: stack underflow"
  in
  let peek () =
    match !stack with
    | v :: _ -> v
    | [] -> Eval.fail "vm: stack underflow"
  in
  let popn n = List.rev (List.init n (fun _ -> pop ())) in
  let current_scope () = List.hd !scopes in
  let pc = ref 0 in
  let n = Array.length code in
  (try
     while !pc < n do
       let instr = code.(!pc) in
       incr pc;
       Eval.tick t 1;
       match instr with
       | Push_num f -> push (Value.Num f)
       | Push_bool b -> push (Value.Bool b)
       | Push_null -> push Value.Null
       | Push_str s -> push (Value.str_of_string (Eval.heap t) s)
       | Load_var name ->
         (match Eval.scope_lookup t (current_scope ()) name with
         | Some v -> push v
         | None ->
           if Eval.host_exists t name then push (Value.Host name)
           else Eval.fail "undefined variable %s" name)
       | Store_var name -> Eval.scope_assign t (current_scope ()) name (peek ())
       | Decl_var name -> Eval.scope_declare (current_scope ()) name (pop ())
       | Pop -> ignore (pop ())
       | Dup -> push (peek ())
       | Dup2 ->
         (match !stack with
         | a :: b :: _ ->
           push b;
           push a
         | _ -> Eval.fail "vm: stack underflow")
       | Bin_op op ->
         let b = pop () in
         let a = pop () in
         push (Eval.binary_fn op t a b)
       | Un_op op -> push (Eval.unary_op t op (pop ()))
       | Jump target -> pc := target
       | Jump_if_false target -> if not (Eval.truthy_value (pop ())) then pc := target
       | Jump_if_false_peek target -> if not (Eval.truthy_value (peek ())) then pc := target
       | Jump_if_true_peek target -> if Eval.truthy_value (peek ()) then pc := target
       | Load_index ->
         let idx = pop () in
         let obj = pop () in
         push (Eval.index_get t obj idx)
       | Store_index_keep ->
         let v = pop () in
         let idx = pop () in
         let obj = pop () in
         Eval.index_set t obj idx v;
         push v
       | Load_member name -> push (Eval.member_get t (pop ()) name)
       | Store_member_keep name ->
         let v = pop () in
         let obj = pop () in
         Eval.member_set t obj name v;
         push v
       | Call_top argc ->
         let args = popn argc in
         let callee = pop () in
         push (call_value vm callee args)
       | Method_call (name, argc) ->
         let args = popn argc in
         let recv = pop () in
         push (method_call vm recv name args)
       | Ns_call (ns, name, argc) -> push (Eval.ns_call t ns name (popn argc))
       | Print_op argc ->
         Eval.print_values t (popn argc);
         push Value.Null
       | New_array_op -> push (Eval.array_of_size t (pop ()))
       | Make_array count ->
         let items = popn count in
         let arr = Eval.array_of_size t (Value.Num 0.0) in
         (match arr with
         | Value.Arr a -> List.iter (Value.arr_push (Eval.heap t) a) items
         | _ -> assert false);
         push arr
       | Make_object keys ->
         let values = popn (List.length keys) in
         let obj = Value.obj_make (Eval.heap t) in
         (match obj with
         | Value.Obj o ->
           List.iter2 (fun k v -> Value.obj_set (Eval.heap t) o k v) keys values
         | _ -> assert false);
         push obj
       | Make_closure fn ->
         let closure = Eval.make_closure t fn (current_scope ()) in
         (match closure with
         | Value.Fun id -> Hashtbl.replace vm.vm_closures id fn
         | _ -> assert false);
         push closure
       | Push_scope -> scopes := Eval.new_scope ~parent:(current_scope ()) () :: !scopes
       | Pop_scope -> scopes := List.tl !scopes
       | Pop_scopes k ->
         for _ = 1 to k do
           scopes := List.tl !scopes
         done
       | Ret -> raise (Vm_return (pop ()))
       | Ret_null -> raise (Vm_return Value.Null)
     done;
     Value.Null
   with Vm_return v -> v)

(* Calls from VM code: VM-made closures re-enter the VM through their
   cached proto; anything else (AST-tier closures, hosts) goes through the
   shared call path. *)
(* Method calls: a function-valued property of an object receiver is
   fetched (same charges as the shared path) and called through the VM's
   own call path, so methods the VM minted execute as bytecode like any
   other VM closure.  Every non-object receiver — array/string builtins —
   takes the shared AST-tier method path unchanged. *)
and method_call vm recv name args =
  match recv with
  | Value.Obj o ->
    (match Value.obj_get (Eval.heap vm.eval) o name with
    | Value.Null -> Eval.fail "object has no method %s" name
    | f -> call_value vm f args)
  | recv -> Eval.method_call vm.eval recv name args

and call_value vm callee args =
  match callee with
  | Value.Fun id when Hashtbl.mem vm.vm_closures id ->
    let fn = Hashtbl.find vm.vm_closures id in
    let scope = Eval.enter_call vm.eval id (Eval.func_params fn) args in
    let v = exec vm (body_code vm (Eval.func_body fn)) scope in
    Eval.leave_call vm.eval;
    v
  | callee -> Eval.call_value vm.eval callee args

let run eval program =
  let vm = { eval; vm_closures = Hashtbl.create 16; code_cache = Hashtbl.create 16 } in
  exec vm program.top (Eval.start_run eval)
