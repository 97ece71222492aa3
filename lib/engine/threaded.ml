(* The fast bytecode tier: direct-threaded dispatch, profiler-selected
   superinstructions, and inline caches.

   Everything here is a host-side optimisation of HOW the reference
   interpreter's work gets done, never WHAT work is simulated: each
   optimisation elides OCaml-level overhead (the per-instruction match,
   list-based operand stacks, repeated hash probes) while performing the
   exact same sequence of simulated charges, machine accesses and fault
   checks.  The differential test suite asserts bit-identical cycles,
   compartment transitions and event traces against [Bytecode.run] on
   every workload kernel.

   The tier has one configuration; every layer below is always on:

   - {b Threaded dispatch}: [Bytecode.instr array] is compiled once per
     code object into an array of closures ("ops"), one per instruction
     index.  The interpreter loop is [while fr.pc < n do ops.(fr.pc) fr
     done]; each op advances [fr.pc] itself, so there is no central
     decode.  Operand stacks are growable arrays, not lists.

   - {b Superinstructions}: adjacent instruction pairs that an opcode
     profile of the reference interpreter measured as hot (EXPERIMENTS.md
     records the ranking) are fused into single specialised closures that
     keep intermediate values in OCaml locals instead of bouncing them
     through the operand stack.
     Fusing never disturbs the instruction index space: the fused op at
     [i] does both instructions' work and continues at [i+2], while
     [ops.(i+1)] keeps its standalone closure for jumps that land there.
     A fused op ticks twice — tick, work1, tick, work2 — in the exact
     order of the unfused pair, so fuel exhaustion hits the same
     instruction boundary.

   - {b Inline caches}: variable sites cache their scope-walk result
     (validated by scope identity + declaration epochs, charging what the
     walk would have charged — see Eval.cached_lookup); property sites
     cache (shape id, slot) pairs against Value's hidden classes,
     mono- then polymorphic up to {!pic_limit} entries, charging exactly
     [prop_cost] on a hit like the name-keyed path. *)

type stats = {
  mutable prop_hits : int;
  mutable prop_misses : int;
  mutable super_execs : int;
}

(* Counters are per-run (threaded through [tvm]), not process-wide:
   concurrent sessions each see only their own IC behaviour.  [Engine.t]
   owns one record and passes it to every [run]. *)
let make_stats () = { prop_hits = 0; prop_misses = 0; super_execs = 0 }

let reset_stats s =
  s.prop_hits <- 0;
  s.prop_misses <- 0;
  s.super_execs <- 0

(* --- Frames --- *)

type frame = {
  mutable stk : Value.t array;
  mutable sp : int;
  mutable scopes : Eval.scope list; (* innermost first *)
  mutable pc : int;
}

type op = frame -> unit

exception Treturn of Value.t

let push fr v =
  let cap = Array.length fr.stk in
  if fr.sp >= cap then begin
    let bigger = Array.make (2 * cap) Value.Null in
    Array.blit fr.stk 0 bigger 0 fr.sp;
    fr.stk <- bigger
  end;
  fr.stk.(fr.sp) <- v;
  fr.sp <- fr.sp + 1

let pop fr =
  if fr.sp = 0 then Eval.fail "vm: stack underflow";
  fr.sp <- fr.sp - 1;
  fr.stk.(fr.sp)

let peek fr =
  if fr.sp = 0 then Eval.fail "vm: stack underflow";
  fr.stk.(fr.sp - 1)

let popn fr n =
  let rec go n acc = if n = 0 then acc else go (n - 1) (pop fr :: acc) in
  go n []

let cur fr = List.hd fr.scopes

(* --- Property inline caches (per compiled site) --- *)

let pic_limit = 4

type pic = {
  mutable p_entries : (int * int) array; (* (shape id, slot index) *)
  mutable p_mega : bool;
}

let pic_make () = { p_entries = [||]; p_mega = false }

let pic_find pic sh =
  let n = Array.length pic.p_entries in
  let rec go i =
    if i >= n then -1
    else
      let s, slot = pic.p_entries.(i) in
      if s = sh then slot else go (i + 1)
  in
  go 0

let pic_add pic sh slot =
  if Array.length pic.p_entries >= pic_limit then pic.p_mega <- true
  else pic.p_entries <- Array.append pic.p_entries [| (sh, slot) |]

(* --- The threaded VM --- *)

type tvm = {
  eval : Eval.t;
  stats : stats;
  (* closure id -> (params, compiled body).  The ops are compiled lazily
     on first call and shared (via [code_cache]) by every closure minted
     at the same [Make_closure] site, so the call path is a single
     int-keyed probe — no structural hashing of the body per call. *)
  vm_closures : (int, string list * int * op array Lazy.t) Hashtbl.t;
  code_cache : (Ast.stmt list, op array) Hashtbl.t;
  (* finished frames, recycled to spare a stack array per call *)
  mutable frame_pool : frame list;
}

let rec compile_ops tvm (code : Bytecode.instr array) : op array =
  let t = tvm.eval in
  let h = Eval.heap t in
  (* Per-site resolvers, shared by plain and fused ops.  Each call mints
     the site's inline-cache state, so call once per compiled site. *)
  let make_load name : frame -> Value.t =
    let site = Eval.var_site name in
    fun fr ->
      match Eval.cached_lookup t (cur fr) site with
      | Some v -> v
      | None ->
        if Eval.host_exists t name then Value.Host name
        else Eval.fail "undefined variable %s" name
  in
  let make_store name : frame -> Value.t -> unit =
    let site = Eval.var_site name in
    fun fr v -> if not (Eval.cached_assign t (cur fr) site v) then Eval.set_global t name v
  in
  let make_member_load name : Value.t -> Value.t =
    let pic = pic_make () in
    fun recv ->
      match recv with
      | Value.Obj o ->
        let sh = Value.obj_shape_id o in
        let slot = if pic.p_mega then -1 else pic_find pic sh in
        if slot >= 0 then begin
          tvm.stats.prop_hits <- tvm.stats.prop_hits + 1;
          Value.obj_get_slot h o slot
        end
        else begin
          tvm.stats.prop_misses <- tvm.stats.prop_misses + 1;
          match Value.obj_slot_index o name with
          | Some sl ->
            if not pic.p_mega then pic_add pic sh sl;
            Value.obj_get_slot h o sl
          | None -> Eval.member_get t recv name
        end
      | recv -> Eval.member_get t recv name
  in
  let make_member_store name : Value.t -> Value.t -> unit =
    let pic = pic_make () in
    fun recv v ->
      match recv with
      | Value.Obj o ->
        let sh = Value.obj_shape_id o in
        let slot = if pic.p_mega then -1 else pic_find pic sh in
        if slot >= 0 then begin
          tvm.stats.prop_hits <- tvm.stats.prop_hits + 1;
          Value.obj_set_slot h o slot v
        end
        else begin
          tvm.stats.prop_misses <- tvm.stats.prop_misses + 1;
          match Value.obj_slot_index o name with
          | Some sl ->
            if not pic.p_mega then pic_add pic sh sl;
            Value.obj_set_slot h o sl v
          | None ->
            (* new property: transitions the shape — never cached *)
            Eval.member_set t recv name v
        end
      | recv -> Eval.member_set t recv name v
  in
  let make_op i (ins : Bytecode.instr) : op =
    let next = i + 1 in
    match ins with
    | Bytecode.Push_num f ->
      fun fr ->
        Eval.tick t 1;
        push fr (Value.Num f);
        fr.pc <- next
    | Bytecode.Push_bool b ->
      let v = Value.Bool b in
      fun fr ->
        Eval.tick t 1;
        push fr v;
        fr.pc <- next
    | Bytecode.Push_null ->
      fun fr ->
        Eval.tick t 1;
        push fr Value.Null;
        fr.pc <- next
    | Bytecode.Push_str s ->
      fun fr ->
        Eval.tick t 1;
        push fr (Value.str_of_string h s);
        fr.pc <- next
    | Bytecode.Load_var name ->
      let load = make_load name in
      fun fr ->
        Eval.tick t 1;
        push fr (load fr);
        fr.pc <- next
    | Bytecode.Store_var name ->
      let store = make_store name in
      fun fr ->
        Eval.tick t 1;
        store fr (peek fr);
        fr.pc <- next
    | Bytecode.Decl_var name ->
      fun fr ->
        Eval.tick t 1;
        Eval.scope_declare (cur fr) name (pop fr);
        fr.pc <- next
    | Bytecode.Pop ->
      fun fr ->
        Eval.tick t 1;
        ignore (pop fr);
        fr.pc <- next
    | Bytecode.Dup ->
      fun fr ->
        Eval.tick t 1;
        push fr (peek fr);
        fr.pc <- next
    | Bytecode.Dup2 ->
      fun fr ->
        Eval.tick t 1;
        if fr.sp < 2 then Eval.fail "vm: stack underflow";
        let a = fr.stk.(fr.sp - 1) in
        let b = fr.stk.(fr.sp - 2) in
        push fr b;
        push fr a;
        fr.pc <- next
    | Bytecode.Bin_op op ->
      let bf = Eval.binary_fn op in
      fun fr ->
        Eval.tick t 1;
        let b = pop fr in
        let a = pop fr in
        push fr (bf t a b);
        fr.pc <- next
    | Bytecode.Un_op op ->
      fun fr ->
        Eval.tick t 1;
        push fr (Eval.unary_op t op (pop fr));
        fr.pc <- next
    | Bytecode.Jump target ->
      fun fr ->
        Eval.tick t 1;
        fr.pc <- target
    | Bytecode.Jump_if_false target ->
      fun fr ->
        Eval.tick t 1;
        fr.pc <- (if not (Eval.truthy_value (pop fr)) then target else next)
    | Bytecode.Jump_if_false_peek target ->
      fun fr ->
        Eval.tick t 1;
        fr.pc <- (if not (Eval.truthy_value (peek fr)) then target else next)
    | Bytecode.Jump_if_true_peek target ->
      fun fr ->
        Eval.tick t 1;
        fr.pc <- (if Eval.truthy_value (peek fr) then target else next)
    | Bytecode.Load_index ->
      fun fr ->
        Eval.tick t 1;
        let idx = pop fr in
        let obj = pop fr in
        push fr (Eval.index_get t obj idx);
        fr.pc <- next
    | Bytecode.Store_index_keep ->
      fun fr ->
        Eval.tick t 1;
        let v = pop fr in
        let idx = pop fr in
        let obj = pop fr in
        Eval.index_set t obj idx v;
        push fr v;
        fr.pc <- next
    | Bytecode.Load_member name ->
      let mload = make_member_load name in
      fun fr ->
        Eval.tick t 1;
        push fr (mload (pop fr));
        fr.pc <- next
    | Bytecode.Store_member_keep name ->
      let mstore = make_member_store name in
      fun fr ->
        Eval.tick t 1;
        let v = pop fr in
        let obj = pop fr in
        mstore obj v;
        push fr v;
        fr.pc <- next
    | Bytecode.Call_top argc ->
      fun fr ->
        Eval.tick t 1;
        let args = popn fr argc in
        let callee = pop fr in
        push fr (call_value tvm callee args);
        fr.pc <- next
    | Bytecode.Method_call (name, argc) ->
      (* mirrors the reference tier's [method_call]: object receivers
         fetch the function-valued property (through the property IC
         here) and call it via the VM's own path, so VM-minted methods
         execute as threaded code; everything else takes the shared
         AST-tier method path *)
      let mload = make_member_load name in
      fun fr ->
        Eval.tick t 1;
        let args = popn fr argc in
        let recv = pop fr in
        push fr
          (match recv with
          | Value.Obj _ ->
            (match mload recv with
            | Value.Null -> Eval.fail "object has no method %s" name
            | f -> call_value tvm f args)
          | recv -> Eval.method_call t recv name args);
        fr.pc <- next
    | Bytecode.Ns_call (ns, name, argc) ->
      fun fr ->
        Eval.tick t 1;
        push fr (Eval.ns_call t ns name (popn fr argc));
        fr.pc <- next
    | Bytecode.Print_op argc ->
      fun fr ->
        Eval.tick t 1;
        Eval.print_values t (popn fr argc);
        push fr Value.Null;
        fr.pc <- next
    | Bytecode.New_array_op ->
      fun fr ->
        Eval.tick t 1;
        push fr (Eval.array_of_size t (pop fr));
        fr.pc <- next
    | Bytecode.Make_array count ->
      fun fr ->
        Eval.tick t 1;
        let items = popn fr count in
        let arr = Eval.array_of_size t (Value.Num 0.0) in
        (match arr with
        | Value.Arr a -> List.iter (Value.arr_push h a) items
        | _ -> assert false);
        push fr arr;
        fr.pc <- next
    | Bytecode.Make_object keys ->
      fun fr ->
        Eval.tick t 1;
        let values = popn fr (List.length keys) in
        let obj = Value.obj_make h in
        (match obj with
        | Value.Obj o -> List.iter2 (fun k v -> Value.obj_set h o k v) keys values
        | _ -> assert false);
        push fr obj;
        fr.pc <- next
    | Bytecode.Make_closure fn ->
      (* one lazy compile and one scope origin per site; every closure
         minted here shares both, and the site's [fn] *)
      let params = Eval.func_params fn in
      let ops_l = lazy (body_ops tvm (Eval.func_body fn)) in
      let origin = Eval.fresh_origin t in
      fun fr ->
        Eval.tick t 1;
        let closure = Eval.make_closure t fn (cur fr) in
        (match closure with
        | Value.Fun id -> Hashtbl.replace tvm.vm_closures id (params, origin, ops_l)
        | _ -> assert false);
        push fr closure;
        fr.pc <- next
    | Bytecode.Push_scope ->
      fun fr ->
        Eval.tick t 1;
        fr.scopes <- Eval.new_scope ~parent:(cur fr) () :: fr.scopes;
        fr.pc <- next
    | Bytecode.Pop_scope ->
      fun fr ->
        Eval.tick t 1;
        fr.scopes <- List.tl fr.scopes;
        fr.pc <- next
    | Bytecode.Pop_scopes k ->
      fun fr ->
        Eval.tick t 1;
        for _ = 1 to k do
          fr.scopes <- List.tl fr.scopes
        done;
        fr.pc <- next
    | Bytecode.Ret ->
      fun fr ->
        Eval.tick t 1;
        raise (Treturn (pop fr))
    | Bytecode.Ret_null ->
      fun _fr ->
        Eval.tick t 1;
        raise (Treturn Value.Null)
  in
  (* Superinstructions: these arms are the fused pair set, selected from
     opcode-pair measurements on the dromaeo and octane suites (the data
     and ranking are recorded in EXPERIMENTS.md).  A fused op replaces
     the op at [i] and continues at [i+2]; the standalone op at [i+1]
     survives for jumps landing there.  The tick/work interleaving of the
     unfused pair is preserved exactly
     (tick1, work1, tick1's charges already made, tick2, work2), with
     intermediates held in locals instead of the operand stack. *)
  let make_fused i (a : Bytecode.instr) (b : Bytecode.instr) : op option =
    let after = i + 2 in
    match (a, b) with
    | Bytecode.Load_var x, Bytecode.Load_var y ->
      let lx = make_load x and ly = make_load y in
      Some
        (fun fr ->
          tvm.stats.super_execs <- tvm.stats.super_execs + 1;
          Eval.tick t 1;
          let vx = lx fr in
          Eval.tick t 1;
          let vy = ly fr in
          push fr vx;
          push fr vy;
          fr.pc <- after)
    | Bytecode.Load_var x, Bytecode.Push_num f ->
      let lx = make_load x in
      Some
        (fun fr ->
          tvm.stats.super_execs <- tvm.stats.super_execs + 1;
          Eval.tick t 1;
          let vx = lx fr in
          Eval.tick t 1;
          push fr vx;
          push fr (Value.Num f);
          fr.pc <- after)
    | Bytecode.Push_num f, Bytecode.Bin_op op ->
      let vb = Value.Num f in
      let bf = Eval.binary_fn op in
      Some
        (fun fr ->
          tvm.stats.super_execs <- tvm.stats.super_execs + 1;
          Eval.tick t 1;
          Eval.tick t 1;
          let a = pop fr in
          push fr (bf t a vb);
          fr.pc <- after)
    | Bytecode.Load_var x, Bytecode.Bin_op op ->
      let lx = make_load x in
      let bf = Eval.binary_fn op in
      Some
        (fun fr ->
          tvm.stats.super_execs <- tvm.stats.super_execs + 1;
          Eval.tick t 1;
          let vb = lx fr in
          Eval.tick t 1;
          let a = pop fr in
          push fr (bf t a vb);
          fr.pc <- after)
    | Bytecode.Bin_op op, Bytecode.Jump_if_false target ->
      let bf = Eval.binary_fn op in
      Some
        (fun fr ->
          tvm.stats.super_execs <- tvm.stats.super_execs + 1;
          Eval.tick t 1;
          let b = pop fr in
          let a = pop fr in
          let v = bf t a b in
          Eval.tick t 1;
          fr.pc <- (if not (Eval.truthy_value v) then target else after))
    | Bytecode.Store_var x, Bytecode.Pop ->
      let store = make_store x in
      Some
        (fun fr ->
          tvm.stats.super_execs <- tvm.stats.super_execs + 1;
          Eval.tick t 1;
          store fr (peek fr);
          Eval.tick t 1;
          ignore (pop fr);
          fr.pc <- after)
    | Bytecode.Load_var x, Bytecode.Load_member m ->
      let lx = make_load x in
      let mload = make_member_load m in
      Some
        (fun fr ->
          tvm.stats.super_execs <- tvm.stats.super_execs + 1;
          Eval.tick t 1;
          let recv = lx fr in
          Eval.tick t 1;
          push fr (mload recv);
          fr.pc <- after)
    | Bytecode.Load_var x, Bytecode.Load_index ->
      let lx = make_load x in
      Some
        (fun fr ->
          tvm.stats.super_execs <- tvm.stats.super_execs + 1;
          Eval.tick t 1;
          let idx = lx fr in
          Eval.tick t 1;
          let obj = pop fr in
          push fr (Eval.index_get t obj idx);
          fr.pc <- after)
    | Bytecode.Push_num f, Bytecode.Load_index ->
      let idx = Value.Num f in
      Some
        (fun fr ->
          tvm.stats.super_execs <- tvm.stats.super_execs + 1;
          Eval.tick t 1;
          Eval.tick t 1;
          let obj = pop fr in
          push fr (Eval.index_get t obj idx);
          fr.pc <- after)
    | Bytecode.Dup2, Bytecode.Load_index ->
      Some
        (fun fr ->
          tvm.stats.super_execs <- tvm.stats.super_execs + 1;
          Eval.tick t 1;
          if fr.sp < 2 then Eval.fail "vm: stack underflow";
          let idx = fr.stk.(fr.sp - 1) in
          let obj = fr.stk.(fr.sp - 2) in
          Eval.tick t 1;
          push fr (Eval.index_get t obj idx);
          fr.pc <- after)
    | Bytecode.Load_var x, Bytecode.Store_var y ->
      let lx = make_load x in
      let store = make_store y in
      Some
        (fun fr ->
          tvm.stats.super_execs <- tvm.stats.super_execs + 1;
          Eval.tick t 1;
          let v = lx fr in
          Eval.tick t 1;
          store fr v;
          push fr v;
          fr.pc <- after)
    | Bytecode.Load_index, Bytecode.Bin_op op ->
      let bf = Eval.binary_fn op in
      Some
        (fun fr ->
          tvm.stats.super_execs <- tvm.stats.super_execs + 1;
          Eval.tick t 1;
          let idx = pop fr in
          let obj = pop fr in
          let b = Eval.index_get t obj idx in
          Eval.tick t 1;
          let a = pop fr in
          push fr (bf t a b);
          fr.pc <- after)
    | Bytecode.Bin_op op, Bytecode.Store_var x ->
      let bf = Eval.binary_fn op in
      let store = make_store x in
      Some
        (fun fr ->
          tvm.stats.super_execs <- tvm.stats.super_execs + 1;
          Eval.tick t 1;
          let b = pop fr in
          let a = pop fr in
          let v = bf t a b in
          Eval.tick t 1;
          store fr v;
          push fr v;
          fr.pc <- after)
    | Bytecode.Pop, Bytecode.Load_var x ->
      let lx = make_load x in
      Some
        (fun fr ->
          tvm.stats.super_execs <- tvm.stats.super_execs + 1;
          Eval.tick t 1;
          ignore (pop fr);
          Eval.tick t 1;
          push fr (lx fr);
          fr.pc <- after)
    | _ -> None
  in
  let n = Array.length code in
  let ops = Array.mapi make_op code in
  let i = ref 0 in
  while !i < n - 1 do
    match make_fused !i code.(!i) code.(!i + 1) with
    | Some op ->
      ops.(!i) <- op;
      i := !i + 2
    | None -> incr i
  done;
  ops

(* Mirrors [Bytecode.call_value]: closures this VM minted re-enter the
   threaded interpreter through the compiled-body cache (no call-cost
   charge, exactly like the reference tier); everything else takes the
   shared AST-tier call path. *)
and call_value tvm callee args =
  match callee with
  | Value.Fun id ->
    (match Hashtbl.find_opt tvm.vm_closures id with
    | Some (params, origin, ops_l) ->
      let scope = Eval.new_scope ~origin ~parent:(Eval.closure_scope tvm.eval id) () in
      List.iteri
        (fun i p ->
          let v =
            match List.nth_opt args i with
            | Some v -> v
            | None -> Value.Null
          in
          Eval.scope_declare scope p v)
        params;
      exec_ops tvm (Lazy.force ops_l) scope
    | None -> Eval.call_value tvm.eval callee args)
  | callee -> Eval.call_value tvm.eval callee args

and body_ops tvm body =
  match Hashtbl.find_opt tvm.code_cache body with
  | Some ops -> ops
  | None ->
    let ops = compile_ops tvm (Bytecode.compile_body body ~toplevel:false) in
    Hashtbl.replace tvm.code_cache body ops;
    ops

(* Frames are recycled through [tvm.frame_pool] on normal exit (a
   Script_error aborts the whole run, so leaking the frame then is
   fine).  A pooled frame's stale stack slots are never read again —
   [sp] is reset — and the engine GC never scans frames, so they keep
   nothing observably alive. *)
and exec_ops tvm ops scope0 =
  let fr =
    match tvm.frame_pool with
    | f :: rest ->
      tvm.frame_pool <- rest;
      f.sp <- 0;
      f.scopes <- [ scope0 ];
      f.pc <- 0;
      f
    | [] -> { stk = Array.make 32 Value.Null; sp = 0; scopes = [ scope0 ]; pc = 0 }
  in
  let n = Array.length ops in
  let ret =
    try
      while fr.pc < n do
        ops.(fr.pc) fr
      done;
      Value.Null
    with Treturn v -> v
  in
  tvm.frame_pool <- fr :: tvm.frame_pool;
  ret

let run ~stats eval (program : Bytecode.program) =
  let tvm =
    { eval; stats; vm_closures = Hashtbl.create 16; code_cache = Hashtbl.create 16;
      frame_pool = [] }
  in
  exec_ops tvm (compile_ops tvm program.Bytecode.top) (Eval.globals_scope eval)
