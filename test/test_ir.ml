(* Tests for the IR: builder, verifier and the compiler passes. *)

open Ir

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let expect_error = function
  | Ok _ -> Alcotest.fail "expected verification error"
  | Error _ -> ()

(* A two-crate module: trusted "app" calling untrusted "clib". *)
let sample_module () =
  let m = Module_ir.create () in
  let u = Builder.create ~name:"u_read" ~crate:"clib" ~nparams:1 () in
  (* The parameter occupies the first register. *)
  let v = Builder.load u (Instr.Reg 0) in
  Builder.ret u (Some (Instr.Reg v));
  Module_ir.add_func m (Builder.finish u);
  Module_ir.mark_untrusted m "clib";
  let f = Builder.create ~name:"main" ~crate:"app" ~nparams:0 () in
  let p = Builder.alloc f (Instr.Imm 64) in
  Builder.store f ~src:(Instr.Imm 77) ~addr:(Instr.Reg p) ();
  let r = Builder.call f ~ret:true "u_read" [ Instr.Reg p ] in
  Builder.ret f (Some (Instr.Reg (Option.get r)));
  Module_ir.add_func m (Builder.finish f);
  m

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_builder_and_printer () =
  let m = sample_module () in
  let text = Format.asprintf "%a" Module_ir.pp m in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "printer mentions %S" needle)
        true (contains ~needle text))
    [ "func @main"; "__rust_alloc"; "call @u_read"; "crate clib [untrusted]" ]

let test_verifier_accepts_sample () = ok (Verifier.verify (sample_module ()))

let test_verifier_bad_branch () =
  let m = Module_ir.create () in
  let b = Builder.create ~name:"f" ~crate:"app" ~nparams:0 () in
  Builder.br b 7;
  Module_ir.add_func m (Builder.finish b);
  expect_error (Verifier.verify m)

let test_verifier_use_before_def () =
  let m = Module_ir.create () in
  let blocks =
    [|
      { Func.block_id = 0; instrs = [ Instr.Binop (Instr.Add, 1, Instr.Reg 0, Instr.Imm 1) ];
        term = Instr.Ret (Some (Instr.Reg 1)) };
    |]
  in
  Module_ir.add_func m (Func.create ~name:"f" ~crate:"app" ~params:[] blocks);
  expect_error (Verifier.verify m)

let test_verifier_join_requires_all_paths () =
  (* r defined on only one arm of a diamond: use after the join must be
     rejected. *)
  let m = Module_ir.create () in
  let b = Builder.create ~name:"f" ~crate:"app" ~nparams:1 () in
  let then_b = Builder.new_block b in
  let else_b = Builder.new_block b in
  let join_b = Builder.new_block b in
  Builder.cond_br b (Instr.Reg 0) then_b else_b;
  Builder.switch_to b then_b;
  let r = Builder.const b 5 in
  Builder.br b join_b;
  Builder.switch_to b else_b;
  Builder.br b join_b;
  Builder.switch_to b join_b;
  Builder.ret b (Some (Instr.Reg r));
  Module_ir.add_func m (Builder.finish b);
  expect_error (Verifier.verify m)

let test_verifier_unknown_callee_and_arity () =
  let m = Module_ir.create () in
  let b = Builder.create ~name:"f" ~crate:"app" ~nparams:0 () in
  ignore (Builder.call b "ghost" []);
  Builder.ret b None;
  Module_ir.add_func m (Builder.finish b);
  expect_error (Verifier.verify m);
  let m2 = sample_module () in
  let b2 = Builder.create ~name:"g" ~crate:"app" ~nparams:0 () in
  ignore (Builder.call b2 "u_read" []);
  (* u_read takes 1 arg *)
  Builder.ret b2 None;
  Module_ir.add_func m2 (Builder.finish b2);
  expect_error (Verifier.verify m2)

let test_verifier_rejects_gate_outside_wrapper () =
  let m = Module_ir.create () in
  let blocks =
    [| { Func.block_id = 0; instrs = [ Instr.Gate Instr.Enter_trusted ]; term = Instr.Ret None } |]
  in
  Module_ir.add_func m (Func.create ~name:"forged" ~crate:"app" ~params:[] blocks);
  expect_error (Verifier.verify m)

let test_verifier_bad_width () =
  let m = Module_ir.create () in
  let blocks =
    [|
      { Func.block_id = 0; instrs = [ Instr.Load { dst = 0; addr = Instr.Imm 0; width = 3 } ];
        term = Instr.Ret None };
    |]
  in
  Module_ir.add_func m (Func.create ~name:"f" ~crate:"app" ~params:[] blocks);
  expect_error (Verifier.verify m)

let test_verifier_host_whitelist () =
  let m = Module_ir.create () in
  let b = Builder.create ~name:"f" ~crate:"app" ~nparams:0 () in
  ignore (Builder.call_host b "print" [ Instr.Imm 1 ]);
  Builder.ret b None;
  Module_ir.add_func m (Builder.finish b);
  expect_error (Verifier.verify m);
  ok (Verifier.verify ~hosts:(fun h -> h = "print") m)

let alloc_sites_of m =
  Module_ir.fold_funcs m
    (fun acc f ->
      let sites = ref acc in
      Func.iter_instrs f (fun _ i ->
          match i with
          | Instr.Alloc a -> sites := a.site :: !sites
          | _ -> ());
      !sites)
    []

let test_assign_ids_unique () =
  let m = Module_ir.create () in
  let b = Builder.create ~name:"f" ~crate:"app" ~nparams:0 () in
  ignore (Builder.alloc b (Instr.Imm 8));
  ignore (Builder.alloc b (Instr.Imm 8));
  let b2 = Builder.new_block b in
  Builder.br b b2;
  Builder.switch_to b b2;
  ignore (Builder.alloc b (Instr.Imm 8));
  Builder.ret b None;
  Module_ir.add_func m (Builder.finish b);
  let g = Builder.create ~name:"g" ~crate:"app" ~nparams:0 () in
  ignore (Builder.alloc g (Instr.Imm 8));
  Builder.ret g None;
  Module_ir.add_func m (Builder.finish g);
  let n = Passes.assign_alloc_ids m in
  Alcotest.(check int) "4 sites" 4 n;
  let sites = alloc_sites_of m in
  let unique = List.sort_uniq compare sites in
  Alcotest.(check int) "all unique" 4 (List.length unique)

let test_insert_gates_rewrites_call () =
  let m, stats =
    ok (Passes.compile ~gates:true ~instrument:false ~hosts:(fun _ -> false) (sample_module ()))
  in
  Alcotest.(check bool) "wrappers created" true (stats.Passes.wrappers >= 1);
  (* main's call now goes through the gate wrapper. *)
  let main = Module_ir.func m "main" in
  let callees = ref [] in
  Func.iter_instrs main (fun _ i ->
      match i with
      | Instr.Call c -> callees := c.callee :: !callees
      | _ -> ());
  Alcotest.(check (list string)) "rewritten" [ "__pkru_gate$u_read" ] !callees;
  (* The wrapper exists, is marked, and contains the gate pair. *)
  let w = Module_ir.func m "__pkru_gate$u_read" in
  Alcotest.(check bool) "is wrapper" true w.Func.is_wrapper

let test_insert_gates_retargets_table () =
  let m = Module_ir.create () in
  (* A trusted callback whose address is taken and handed to U. *)
  let cb = Builder.create ~name:"t_callback" ~crate:"app" ~nparams:0 () in
  Builder.ret cb (Some (Instr.Imm 5));
  Module_ir.add_func m (Builder.finish cb);
  let u = Builder.create ~name:"u_invoke" ~crate:"clib" ~nparams:1 () in
  let r = Builder.call_indirect u ~ret:true (Instr.Reg 0) [] in
  Builder.ret u (Some (Instr.Reg (Option.get r)));
  Module_ir.add_func m (Builder.finish u);
  Module_ir.mark_untrusted m "clib";
  let f = Builder.create ~name:"main" ~crate:"app" ~nparams:0 () in
  let addr = Builder.func_addr f "t_callback" in
  let r = Builder.call f ~ret:true "u_invoke" [ Instr.Reg addr ] in
  Builder.ret f (Some (Instr.Reg (Option.get r)));
  Module_ir.add_func m (Builder.finish f);
  let compiled, stats =
    ok (Passes.compile ~gates:true ~instrument:false ~hosts:(fun _ -> false) m)
  in
  Alcotest.(check bool) "several wrappers" true (stats.Passes.wrappers >= 2);
  let index = Option.get (Module_ir.find_index compiled "t_callback") in
  Alcotest.(check (option string)) "table entry retargeted"
    (Some "__pkru_entry$t_callback")
    (Module_ir.func_table_entry compiled index)

let test_lower_untrusted_allocs () =
  let m = Module_ir.create () in
  let u = Builder.create ~name:"u_mk" ~crate:"clib" ~nparams:0 () in
  let p = Builder.alloc u (Instr.Imm 32) in
  Builder.ret u (Some (Instr.Reg p));
  Module_ir.add_func m (Builder.finish u);
  Module_ir.mark_untrusted m "clib";
  let m, _ = ok (Passes.compile ~gates:false ~instrument:false ~hosts:(fun _ -> false) m) in
  Func.iter_instrs (Module_ir.func m "u_mk") (fun _ i ->
      match i with
      | Instr.Alloc a ->
        Alcotest.(check bool) "U alloc lowered to MU" true (a.pool = Instr.Untrusted_pool)
      | _ -> ())

let test_apply_profile_moves_only_recorded () =
  let m = sample_module () in
  ignore (Passes.assign_alloc_ids m);
  let sites = alloc_sites_of m in
  let target = List.hd sites in
  let profile = ( = ) target in
  let compile m = ok (Passes.compile ~gates:false ~instrument:false ~profile ~hosts:(fun _ -> false) m) in
  let moved, stats = compile m in
  Alcotest.(check int) "one site moved" 1 stats.Passes.sites_moved;
  (* Idempotent: a second application moves nothing. *)
  Alcotest.(check int) "idempotent" 0 (snd (compile moved)).Passes.sites_moved

let test_compile_copies_source () =
  let m = sample_module () in
  let compiled, _ =
    ok (Passes.compile ~gates:true ~instrument:true ~hosts:(fun _ -> false) m)
  in
  (* The source module is untouched: no wrappers, no instrumented sites. *)
  Alcotest.(check bool) "no wrapper in source" true
    (Module_ir.find_func m "__pkru_gate$u_read" = None);
  Alcotest.(check bool) "wrapper in compiled" true
    (Module_ir.find_func compiled "__pkru_gate$u_read" <> None);
  Func.iter_instrs (Module_ir.func m "main") (fun _ i ->
      match i with
      | Instr.Alloc a -> Alcotest.(check bool) "source uninstrumented" false a.instrumented
      | _ -> ())

let suite =
  [
    Alcotest.test_case "builder + printer" `Quick test_builder_and_printer;
    Alcotest.test_case "verifier accepts sample" `Quick test_verifier_accepts_sample;
    Alcotest.test_case "verifier: bad branch" `Quick test_verifier_bad_branch;
    Alcotest.test_case "verifier: use before def" `Quick test_verifier_use_before_def;
    Alcotest.test_case "verifier: partial definition at join" `Quick test_verifier_join_requires_all_paths;
    Alcotest.test_case "verifier: callee checks" `Quick test_verifier_unknown_callee_and_arity;
    Alcotest.test_case "verifier: forged gate" `Quick test_verifier_rejects_gate_outside_wrapper;
    Alcotest.test_case "verifier: bad width" `Quick test_verifier_bad_width;
    Alcotest.test_case "verifier: host whitelist" `Quick test_verifier_host_whitelist;
    Alcotest.test_case "assign ids unique" `Quick test_assign_ids_unique;
    Alcotest.test_case "gates rewrite calls" `Quick test_insert_gates_rewrites_call;
    Alcotest.test_case "gates retarget table" `Quick test_insert_gates_retargets_table;
    Alcotest.test_case "untrusted allocs lowered" `Quick test_lower_untrusted_allocs;
    Alcotest.test_case "profile apply" `Quick test_apply_profile_moves_only_recorded;
    Alcotest.test_case "compile copies source" `Quick test_compile_copies_source;
  ]
