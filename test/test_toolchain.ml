(* End-to-end tests of the IR interpreter and the four-stage pipeline —
   including the artifact's experiment E1 (deny -> profile -> enforce). *)

open Ir

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

(* The E1 example program: trusted main allocates an object, hands it to an
   untrusted library function that writes 1337 into it, then reads it
   back.  A second, private allocation is never shared. *)
let e1_module () =
  let m = Module_ir.create () in
  let u = Builder.create ~name:"untrusted_write" ~crate:"clib" ~nparams:1 () in
  (* The parameter occupies the first register. *)
  Builder.store u ~src:(Instr.Imm 1337) ~addr:(Instr.Reg 0) ();
  Builder.ret u None;
  Module_ir.add_func m (Builder.finish u);
  Module_ir.mark_untrusted m "clib";
  let f = Builder.create ~name:"main" ~crate:"app" ~nparams:0 () in
  let shared = Builder.alloc f (Instr.Imm 64) in
  let private_ = Builder.alloc f (Instr.Imm 64) in
  Builder.store f ~src:(Instr.Imm 0) ~addr:(Instr.Reg shared) ();
  Builder.store f ~src:(Instr.Imm 42) ~addr:(Instr.Reg private_) ();
  ignore (Builder.call f "untrusted_write" [ Instr.Reg shared ]);
  let v = Builder.load f (Instr.Reg shared) in
  let w = Builder.load f (Instr.Reg private_) in
  let sum = Builder.binop f Instr.Add (Instr.Reg v) (Instr.Reg w) in
  Builder.ret f (Some (Instr.Reg sum));
  Module_ir.add_func m (Builder.finish f);
  m

let build ?profile mode src = ok (Toolchain.Pipeline.build ?profile ~mode src)

let test_base_build_runs () =
  let b = build Pkru_safe.Config.Base (e1_module ()) in
  Alcotest.(check int) "1337 + 42" 1379 (Toolchain.Interp.run b.Toolchain.Pipeline.interp "main" []);
  Alcotest.(check int) "no transitions" 0 (Pkru_safe.Env.transitions b.Toolchain.Pipeline.env)

let test_e1_step1_deny () =
  (* Enforcement with no profile: the untrusted write must crash. *)
  let b = build ~profile:(Runtime.Profile.create ()) Pkru_safe.Config.Mpk (e1_module ()) in
  match Toolchain.Interp.run b.Toolchain.Pipeline.interp "main" [] with
  | exception Vmm.Fault.Unhandled { Vmm.Fault.kind = Vmm.Fault.Pkey_violation _; _ } -> ()
  | v -> Alcotest.fail (Printf.sprintf "expected MPK crash, got %d" v)

let test_e1_step2_profile () =
  let profile =
    ok (Toolchain.Pipeline.collect_profile (e1_module ())
          ~inputs:[ (fun interp -> ignore (Toolchain.Interp.run interp "main" [])) ])
  in
  (* Exactly one of the two allocation sites crossed the boundary. *)
  Alcotest.(check int) "one shared site" 1 (Runtime.Profile.cardinal profile)

(* Stages 2-4 as the pipeline command runs them: profile with [inputs],
   then build the enforcing image. *)
let full_cycle source ~inputs =
  Result.bind (Toolchain.Pipeline.collect_profile source ~inputs) (fun profile ->
      Toolchain.Pipeline.build ~profile ~mode:Pkru_safe.Config.Mpk source)

let test_e1_step3_enforce () =
  let b = ok (full_cycle (e1_module ())
                ~inputs:[ (fun interp -> ignore (Toolchain.Interp.run interp "main" [])) ]) in
  Alcotest.(check int) "enforced run works" 1379 (Toolchain.Interp.run b.Toolchain.Pipeline.interp "main" []);
  Alcotest.(check int) "one site moved" 1 b.Toolchain.Pipeline.pass_stats.Passes.sites_moved;
  Alcotest.(check bool) "gates were inserted" true (b.Toolchain.Pipeline.pass_stats.Passes.wrappers >= 1);
  (* The boundary was actually crossed through gates. *)
  Alcotest.(check bool) "transitions counted" true (Pkru_safe.Env.transitions b.Toolchain.Pipeline.env >= 2)

let test_e1_private_data_stays_protected () =
  (* Extend U to also read main's private allocation: enforcement must kill
     it even after a correct profile for the shared object. *)
  let m = e1_module () in
  let evil = Builder.create ~name:"untrusted_snoop" ~crate:"clib" ~nparams:1 () in
  let v = Builder.load evil (Instr.Reg 0) in
  Builder.ret evil (Some (Instr.Reg v));
  Module_ir.add_func m (Builder.finish evil);
  let g = Builder.create ~name:"main_snoop" ~crate:"app" ~nparams:0 () in
  let shared = Builder.alloc g (Instr.Imm 64) in
  let private_ = Builder.alloc g (Instr.Imm 64) in
  ignore (Builder.call g "untrusted_write" [ Instr.Reg shared ]);
  let r = Builder.call g ~ret:true "untrusted_snoop" [ Instr.Reg private_ ] in
  Builder.ret g (Some (Instr.Reg (Option.get r)));
  Module_ir.add_func m (Builder.finish g);
  (* Profile only the benign entry point; the snooping path is never
     profiled (profiling inputs are assumed benign). *)
  let profile =
    ok (Toolchain.Pipeline.collect_profile m
          ~inputs:[ (fun interp -> ignore (Toolchain.Interp.run interp "main" [])) ])
  in
  let b = build ~profile Pkru_safe.Config.Mpk m in
  match Toolchain.Interp.run b.Toolchain.Pipeline.interp "main_snoop" [] with
  | exception Vmm.Fault.Unhandled _ -> ()
  | v -> Alcotest.fail (Printf.sprintf "snoop should crash, got %d" v)

let test_callback_through_function_pointer () =
  let m = Module_ir.create () in
  (* T callback reads trusted private state (passed as arg). *)
  let cb = Builder.create ~name:"t_callback" ~crate:"app" ~nparams:1 () in
  let v = Builder.load cb (Instr.Reg 0) in
  Builder.ret cb (Some (Instr.Reg v));
  Module_ir.add_func m (Builder.finish cb);
  (* U invokes the function pointer it was given. *)
  let u = Builder.create ~name:"u_invoke" ~crate:"clib" ~nparams:2 () in
  let r = Builder.call_indirect u ~ret:true (Instr.Reg 0) [ Instr.Reg 1 ] in
  Builder.ret u (Some (Instr.Reg (Option.get r)));
  Module_ir.add_func m (Builder.finish u);
  Module_ir.mark_untrusted m "clib";
  let f = Builder.create ~name:"main" ~crate:"app" ~nparams:0 () in
  let secret = Builder.alloc f (Instr.Imm 8) in
  Builder.store f ~src:(Instr.Imm 777) ~addr:(Instr.Reg secret) ();
  let addr = Builder.func_addr f "t_callback" in
  let r = Builder.call f ~ret:true "u_invoke" [ Instr.Reg addr; Instr.Reg secret ] in
  Builder.ret f (Some (Instr.Reg (Option.get r)));
  Module_ir.add_func m (Builder.finish f);
  (* No profiling needed: only T code ever dereferences the secret.  The
     reverse gate restores T's view inside the callback. *)
  let b = build ~profile:(Runtime.Profile.create ()) Pkru_safe.Config.Mpk m in
  Alcotest.(check int) "callback result" 777 (Toolchain.Interp.run b.Toolchain.Pipeline.interp "main" []);
  (* main -> U gate (2) + U -> callback entry gate (2). *)
  Alcotest.(check int) "transitions" 4 (Pkru_safe.Env.transitions b.Toolchain.Pipeline.env)

let test_loops_and_arith () =
  let m2 = Module_ir.create () in
  let g = Builder.create ~name:"fib" ~crate:"app" ~nparams:1 () in
  let base = Builder.new_block g in
  let rec_b = Builder.new_block g in
  let cond = Builder.binop g Instr.Lt (Instr.Reg 0) (Instr.Imm 2) in
  Builder.cond_br g (Instr.Reg cond) base rec_b;
  Builder.switch_to g base;
  Builder.ret g (Some (Instr.Reg 0));
  Builder.switch_to g rec_b;
  let n1 = Builder.binop g Instr.Sub (Instr.Reg 0) (Instr.Imm 1) in
  let n2 = Builder.binop g Instr.Sub (Instr.Reg 0) (Instr.Imm 2) in
  let f1 = Option.get (Builder.call g ~ret:true "fib" [ Instr.Reg n1 ]) in
  let f2 = Option.get (Builder.call g ~ret:true "fib" [ Instr.Reg n2 ]) in
  let s = Builder.binop g Instr.Add (Instr.Reg f1) (Instr.Reg f2) in
  Builder.ret g (Some (Instr.Reg s));
  Module_ir.add_func m2 (Builder.finish g);
  let b = build Pkru_safe.Config.Base m2 in
  Alcotest.(check int) "fib 15" 610 (Toolchain.Interp.run b.Toolchain.Pipeline.interp "fib" [ 15 ]);
  Alcotest.(check bool) "cycles charged" true (Pkru_safe.Env.cycles b.Toolchain.Pipeline.env > 0)

let test_host_functions () =
  let m = Module_ir.create () in
  let f = Builder.create ~name:"main" ~crate:"app" ~nparams:0 () in
  let r = Builder.call_host f ~ret:true "add_mod" [ Instr.Imm 20; Instr.Imm 30 ] in
  Builder.ret f (Some (Instr.Reg (Option.get r)));
  Module_ir.add_func m (Builder.finish f);
  let hosts =
    [ ("add_mod", fun _env args ->
        match args with
        | [ a; b ] -> (a + b) mod 7
        | _ -> -1) ]
  in
  let b = ok (Toolchain.Pipeline.build ~hosts ~mode:Pkru_safe.Config.Base m) in
  Alcotest.(check int) "host result" 1 (Toolchain.Interp.run b.Toolchain.Pipeline.interp "main" [])

let test_traps () =
  let m = Module_ir.create () in
  let f = Builder.create ~name:"div0" ~crate:"app" ~nparams:0 () in
  let r = Builder.binop f Instr.Div (Instr.Imm 1) (Instr.Imm 0) in
  Builder.ret f (Some (Instr.Reg r));
  Module_ir.add_func m (Builder.finish f);
  let loop = Builder.create ~name:"forever" ~crate:"app" ~nparams:0 () in
  let again = Builder.new_block loop in
  Builder.br loop again;
  Builder.switch_to loop again;
  Builder.br loop again;
  Module_ir.add_func m (Builder.finish loop);
  let b = build Pkru_safe.Config.Base m in
  Alcotest.(check bool) "div by zero traps" true
    (match Toolchain.Interp.run b.Toolchain.Pipeline.interp "div0" [] with
    | exception Toolchain.Interp.Trap _ -> true
    | _ -> false);
  let env2 = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
  let interp2 = Toolchain.Interp.create ~fuel:10_000 (Toolchain.Interp.modul b.Toolchain.Pipeline.interp) env2 in
  Alcotest.(check bool) "fuel exhausts" true
    (match Toolchain.Interp.run interp2 "forever" [] with
    | exception Toolchain.Interp.Trap msg -> msg = "out of fuel"
    | _ -> false)

let test_realloc_in_ir_keeps_profile_provenance () =
  (* main allocates, reallocates (moving the object), then shares the
     reallocated pointer; the *original* allocation site must be profiled
     and the enforcement build must work. *)
  let m = Module_ir.create () in
  let u = Builder.create ~name:"u_touch" ~crate:"clib" ~nparams:1 () in
  let v = Builder.load u (Instr.Reg 0) in
  Builder.ret u (Some (Instr.Reg v));
  Module_ir.add_func m (Builder.finish u);
  Module_ir.mark_untrusted m "clib";
  let f = Builder.create ~name:"main" ~crate:"app" ~nparams:0 () in
  let p = Builder.alloc f (Instr.Imm 16) in
  let q = Builder.realloc f ~addr:(Instr.Reg p) ~size:(Instr.Imm 8192) in
  Builder.store f ~src:(Instr.Imm 99) ~addr:(Instr.Reg q) ();
  let r = Builder.call f ~ret:true "u_touch" [ Instr.Reg q ] in
  Builder.ret f (Some (Instr.Reg (Option.get r)));
  Module_ir.add_func m (Builder.finish f);
  let b = ok (full_cycle m
                ~inputs:[ (fun interp -> ignore (Toolchain.Interp.run interp "main" [])) ]) in
  Alcotest.(check int) "works end to end" 99 (Toolchain.Interp.run b.Toolchain.Pipeline.interp "main" []);
  Alcotest.(check int) "site moved via realloc provenance" 1
    b.Toolchain.Pipeline.pass_stats.Passes.sites_moved

let test_alloc_config_no_gates_but_split () =
  let profile =
    ok (Toolchain.Pipeline.collect_profile (e1_module ())
          ~inputs:[ (fun interp -> ignore (Toolchain.Interp.run interp "main" [])) ])
  in
  let b = build ~profile Pkru_safe.Config.Alloc (e1_module ()) in
  Alcotest.(check int) "alloc build runs" 1379 (Toolchain.Interp.run b.Toolchain.Pipeline.interp "main" []);
  Alcotest.(check int) "no transitions" 0 (Pkru_safe.Env.transitions b.Toolchain.Pipeline.env);
  Alcotest.(check int) "site still moved" 1 b.Toolchain.Pipeline.pass_stats.Passes.sites_moved

let suite =
  [
    Alcotest.test_case "base build runs" `Quick test_base_build_runs;
    Alcotest.test_case "E1 step 1: deny" `Quick test_e1_step1_deny;
    Alcotest.test_case "E1 step 2: profile" `Quick test_e1_step2_profile;
    Alcotest.test_case "E1 step 3: enforce" `Quick test_e1_step3_enforce;
    Alcotest.test_case "private data stays protected" `Quick test_e1_private_data_stays_protected;
    Alcotest.test_case "callback via function pointer" `Quick test_callback_through_function_pointer;
    Alcotest.test_case "recursion + arithmetic" `Quick test_loops_and_arith;
    Alcotest.test_case "host functions" `Quick test_host_functions;
    Alcotest.test_case "traps" `Quick test_traps;
    Alcotest.test_case "realloc provenance end-to-end" `Quick test_realloc_in_ir_keeps_profile_provenance;
    Alcotest.test_case "alloc config: split, no gates" `Quick test_alloc_config_no_gates_but_split;
  ]
