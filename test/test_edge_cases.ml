(* Edge cases and failure injection across the stack. *)

open Ir

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let site = Runtime.Alloc_id.synthetic

(* --- Profiling a dangling access: a freed MT object faults but maps to no
   live metadata, so nothing is recorded (the fault is serviced
   permissively, like any untracked trusted data). --- *)
let test_use_after_free_during_profiling_is_untracked () =
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Profiling)) in
  let m = Pkru_safe.Env.machine env in
  let addr = Pkru_safe.Env.alloc env ~site:(site 1) 64 in
  Sim.Machine.write_u64 m addr 7;
  Pkru_safe.Env.dealloc env addr;
  (* U dereferences the stale pointer. *)
  Pkru_safe.Env.ffi_call env (fun () -> ignore (Sim.Machine.read_u64 m addr));
  let profiler = Option.get (Pkru_safe.Env.profiler env) in
  Alcotest.(check int) "no site recorded" 0
    (Runtime.Profile.cardinal (Pkru_safe.Env.recorded_profile env));
  Alcotest.(check int) "fault counted as untracked" 1 (Runtime.Profiler.untracked_faults profiler)

(* --- Store-width truncation in the interpreter. --- *)
let test_interp_store_width_truncation () =
  let m = Module_ir.create () in
  let f = Builder.create ~name:"main" ~crate:"app" ~nparams:0 () in
  let p = Builder.alloc f (Instr.Imm 16) in
  Builder.store f ~src:(Instr.Imm 0x1234_5678) ~addr:(Instr.Reg p) ~width:1 ();
  let low = Builder.load f ~width:1 (Instr.Reg p) in
  Builder.store f ~src:(Instr.Imm 0xABCDE) ~addr:(Instr.Reg p) ~width:2 ();
  let mid = Builder.load f ~width:2 (Instr.Reg p) in
  let shifted = Builder.binop f Instr.Shl (Instr.Reg mid) (Instr.Imm 8) in
  let sum = Builder.binop f Instr.Add (Instr.Reg low) (Instr.Reg shifted) in
  Builder.ret f (Some (Instr.Reg sum));
  Module_ir.add_func m (Builder.finish f);
  let b = ok (Toolchain.Pipeline.build ~mode:Pkru_safe.Config.Base m) in
  Alcotest.(check int) "truncated stores" (0x78 + (0xBCDE lsl 8))
    (Toolchain.Interp.run b.Toolchain.Pipeline.interp "main" [])

(* --- An indirect call to a garbage index traps. --- *)
let test_interp_bad_indirect_target () =
  let m = Module_ir.create () in
  let f = Builder.create ~name:"main" ~crate:"app" ~nparams:0 () in
  ignore (Builder.call_indirect f (Instr.Imm 999) []);
  Builder.ret f None;
  Module_ir.add_func m (Builder.finish f);
  let b = ok (Toolchain.Pipeline.build ~mode:Pkru_safe.Config.Base m) in
  Alcotest.(check bool) "trap" true
    (match Toolchain.Interp.run b.Toolchain.Pipeline.interp "main" [] with
    | exception Toolchain.Interp.Trap _ -> true
    | _ -> false)

(* --- Host exceptions propagate out of scripts through the gates, which
   still unwind. --- *)
exception Host_boom

let test_host_exception_unwinds_gates () =
  let env =
    ok
      (Pkru_safe.Env.create ~profile:(Runtime.Profile.create ())
         (Pkru_safe.Config.make Pkru_safe.Config.Mpk))
  in
  let b = Browser.create env in
  Engine.register_host (Browser.engine b) "hostBoom" (fun _ -> raise Host_boom);
  (* Profile the script source first so lexing works under enforcement. *)
  let prof_env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Profiling)) in
  let pb = Browser.create prof_env in
  ignore (Browser.exec_script pb "1;");
  let env2 =
    ok
      (Pkru_safe.Env.create ~profile:(Pkru_safe.Env.recorded_profile prof_env)
         (Pkru_safe.Config.make Pkru_safe.Config.Mpk))
  in
  let b2 = Browser.create env2 in
  Engine.register_host (Browser.engine b2) "hostBoom" (fun _ -> raise Host_boom);
  (match Browser.exec_script b2 "hostBoom();" with
  | exception Host_boom -> ()
  | _ -> Alcotest.fail "expected the host exception");
  (* The gates unwound: the browser is back in T and can keep working. *)
  let gate = Pkru_safe.Env.gate env2 in
  Alcotest.(check string) "back in trusted" "trusted"
    (Runtime.Compartment.to_string (Runtime.Gate.current gate));
  Alcotest.(check int) "stack drained" 0 (Runtime.Comp_stack.depth (Runtime.Gate.stack gate));
  ignore (Browser.exec_script b2 "1 + 1;")

(* --- Deeply nested JSON parses without blowing up. --- *)
let test_json_deep_nesting () =
  let depth = 2_000 in
  let text = String.make depth '[' ^ "1" ^ String.make depth ']' in
  match Util.Json.of_string text with
  | Util.Json.List _ -> ()
  | _ -> Alcotest.fail "expected a list"

(* --- dlmalloc requests larger than its default segment grow a dedicated
   segment. --- *)
let test_dlmalloc_oversized_request () =
  let m = Sim.Machine.create () in
  let pool =
    ok (Allocators.Pool.create m ~base:0x100_0000 ~size:(4096 * Vmm.Layout.page_size)
          ~pkey:Mpk.Pkey.default)
  in
  let dl = Allocators.Dlmalloc_model.create m pool in
  (* Default segment is 16 pages; ask for 50 pages worth. *)
  let big = 50 * Vmm.Layout.page_size in
  let a = Option.get (Allocators.Dlmalloc_model.alloc dl big) in
  Sim.Machine.write_u8 m (a + big - 1) 0xEE;
  Alcotest.(check int) "tail byte" 0xEE (Sim.Machine.read_u8 m (a + big - 1));
  (match Allocators.Dlmalloc_model.usable_size dl a with
  | Some n -> Alcotest.(check bool) "usable covers request" true (n >= big)
  | None -> Alcotest.fail "usable");
  Allocators.Dlmalloc_model.free dl a;
  ok (Allocators.Dlmalloc_model.check_heap dl)

(* --- Profile hit counts accumulate across repeated faults and merge. --- *)
let test_profile_hits_accumulate_across_runs () =
  let run () =
    let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Profiling)) in
    let m = Pkru_safe.Env.machine env in
    let a = Pkru_safe.Env.alloc env ~site:(site 3) 64 in
    Pkru_safe.Env.ffi_call env (fun () ->
        for i = 0 to 4 do
          ignore (Sim.Machine.read_u8 m (a + i))
        done);
    Pkru_safe.Env.recorded_profile env
  in
  let merged = Runtime.Profile.merge (run ()) (run ()) in
  Alcotest.(check int) "one unique site" 1 (Runtime.Profile.cardinal merged);
  Alcotest.(check int) "hits summed across runs" 10 (Runtime.Profile.hit_count merged (site 3))

(* --- The engine's display of special floats. --- *)
let test_engine_special_numbers () =
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
  let e = Engine.create env in
  let show src = Engine.Value.to_display_string (Engine.heap e) (Engine.eval_string e src) in
  Alcotest.(check string) "division by zero" "inf" (show "1 / 0;");
  Alcotest.(check string) "negative infinity" "-inf" (show "-1 / 0;");
  (let shown = show "0 / 0;" in
   Alcotest.(check bool) ("nan rendering: " ^ shown) true
     (shown = "nan" || shown = "-nan"));
  Alcotest.(check string) "negative zero" "-0" (show "-0;")

let suite =
  [
    Alcotest.test_case "UAF during profiling untracked" `Quick
      test_use_after_free_during_profiling_is_untracked;
    Alcotest.test_case "store width truncation" `Quick test_interp_store_width_truncation;
    Alcotest.test_case "bad indirect target" `Quick test_interp_bad_indirect_target;
    Alcotest.test_case "host exception unwinds gates" `Quick test_host_exception_unwinds_gates;
    Alcotest.test_case "json deep nesting" `Quick test_json_deep_nesting;
    Alcotest.test_case "dlmalloc oversized request" `Quick test_dlmalloc_oversized_request;
    Alcotest.test_case "profile hits accumulate" `Quick test_profile_hits_accumulate_across_runs;
    Alcotest.test_case "engine special numbers" `Quick test_engine_special_numbers;
  ]
