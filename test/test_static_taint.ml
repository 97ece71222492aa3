(* Tests for the static taint analysis (the §6 alternative to dynamic
   profiling): soundness relative to dynamic profiles, the documented
   over-approximation, heap-content and pointer-chasing propagation, and
   the end-to-end static enforcement build. *)

open Ir

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let assigned m =
  let m = Module_ir.copy m in
  ignore (Passes.assign_alloc_ids m);
  m

let analyze m = Static_taint.analyze (assigned m)

let shared_count r = Runtime.Alloc_id.Set.cardinal r.Static_taint.shared

(* Trusted main shares one object directly and keeps one private. *)
let direct_share_module () =
  let m = Module_ir.create () in
  let u = Builder.create ~name:"u_take" ~crate:"clib" ~nparams:1 () in
  Builder.ret u (Some (Instr.Reg 0));
  Module_ir.add_func m (Builder.finish u);
  Module_ir.mark_untrusted m "clib";
  let f = Builder.create ~name:"main" ~crate:"app" ~nparams:0 () in
  let shared = Builder.alloc f (Instr.Imm 16) in
  let private_ = Builder.alloc f (Instr.Imm 16) in
  Builder.store f ~src:(Instr.Imm 1) ~addr:(Instr.Reg private_) ();
  ignore (Builder.call f "u_take" [ Instr.Reg shared ]);
  Builder.ret f None;
  Module_ir.add_func m (Builder.finish f);
  m

let test_direct_flow () =
  let r = analyze (direct_share_module ()) in
  Alcotest.(check int) "exactly the shared site" 1 (shared_count r);
  Alcotest.(check bool) "converges quickly" true (r.Static_taint.iterations < 10)

let test_flow_through_helper_and_return () =
  (* The pointer passes through a trusted helper and a return value before
     reaching U — inter-procedural propagation in both directions. *)
  let m = Module_ir.create () in
  let u = Builder.create ~name:"u_take" ~crate:"clib" ~nparams:1 () in
  Builder.ret u None;
  Module_ir.add_func m (Builder.finish u);
  Module_ir.mark_untrusted m "clib";
  let mk = Builder.create ~name:"make_buffer" ~crate:"app" ~nparams:0 () in
  let p = Builder.alloc mk (Instr.Imm 32) in
  Builder.ret mk (Some (Instr.Reg p));
  Module_ir.add_func m (Builder.finish mk);
  let fwd = Builder.create ~name:"forward" ~crate:"app" ~nparams:1 () in
  ignore (Builder.call fwd "u_take" [ Instr.Reg 0 ]);
  Builder.ret fwd None;
  Module_ir.add_func m (Builder.finish fwd);
  let f = Builder.create ~name:"main" ~crate:"app" ~nparams:0 () in
  let p = Builder.call f ~ret:true "make_buffer" [] in
  ignore (Builder.call f "forward" [ Instr.Reg (Option.get p) ]);
  Builder.ret f None;
  Module_ir.add_func m (Builder.finish f);
  Alcotest.(check int) "found through two hops" 1 (shared_count (analyze m))

let test_pointer_chasing_closure () =
  (* U receives a struct whose field points at a second trusted object:
     both must move ("objects reachable through the fields of aggregate
     types", §3.4). *)
  let m = Module_ir.create () in
  let u = Builder.create ~name:"u_take" ~crate:"clib" ~nparams:1 () in
  Builder.ret u None;
  Module_ir.add_func m (Builder.finish u);
  Module_ir.mark_untrusted m "clib";
  let f = Builder.create ~name:"main" ~crate:"app" ~nparams:0 () in
  let outer = Builder.alloc f (Instr.Imm 16) in
  let inner = Builder.alloc f (Instr.Imm 16) in
  let unrelated = Builder.alloc f (Instr.Imm 16) in
  Builder.store f ~src:(Instr.Reg inner) ~addr:(Instr.Reg outer) ();
  Builder.store f ~src:(Instr.Imm 9) ~addr:(Instr.Reg unrelated) ();
  ignore (Builder.call f "u_take" [ Instr.Reg outer ]);
  Builder.ret f None;
  Module_ir.add_func m (Builder.finish f);
  let r = analyze m in
  Alcotest.(check int) "outer + inner, not the unrelated one" 2 (shared_count r)

let test_over_approximation_on_dead_branch () =
  (* The object only flows to U on a branch that never executes: dynamic
     profiling keeps it private, the static analysis must flag it (§6's
     imprecision, demonstrated). *)
  let m = Module_ir.create () in
  let u = Builder.create ~name:"u_take" ~crate:"clib" ~nparams:1 () in
  Builder.ret u None;
  Module_ir.add_func m (Builder.finish u);
  Module_ir.mark_untrusted m "clib";
  let f = Builder.create ~name:"main" ~crate:"app" ~nparams:0 () in
  let dead = Builder.new_block f in
  let live = Builder.new_block f in
  let p = Builder.alloc f (Instr.Imm 8) in
  let never = Builder.const f 0 in
  Builder.cond_br f (Instr.Reg never) dead live;
  Builder.switch_to f dead;
  ignore (Builder.call f "u_take" [ Instr.Reg p ]);
  Builder.br f live;
  Builder.switch_to f live;
  Builder.ret f None;
  Module_ir.add_func m (Builder.finish f);
  (* Static: flagged. *)
  Alcotest.(check int) "static flags the dead-branch flow" 1 (shared_count (analyze m));
  (* Dynamic: not recorded. *)
  let profile =
    ok (Toolchain.Pipeline.collect_profile m
          ~inputs:[ (fun i -> ignore (Toolchain.Interp.run i "main" [])) ])
  in
  Alcotest.(check int) "dynamic profile stays empty" 0 (Runtime.Profile.cardinal profile)

let test_indirect_calls_are_conservative () =
  (* The shared pointer reaches U only through a function pointer; the
     analysis must not miss it. *)
  let m = Module_ir.create () in
  let u = Builder.create ~name:"u_take" ~crate:"clib" ~nparams:1 () in
  Builder.ret u None;
  Module_ir.add_func m (Builder.finish u);
  Module_ir.mark_untrusted m "clib";
  let f = Builder.create ~name:"main" ~crate:"app" ~nparams:0 () in
  let p = Builder.alloc f (Instr.Imm 8) in
  let fp = Builder.func_addr f "u_take" in
  ignore (Builder.call_indirect f (Instr.Reg fp) [ Instr.Reg p ]);
  Builder.ret f None;
  Module_ir.add_func m (Builder.finish f);
  Alcotest.(check int) "indirect flow found" 1 (shared_count (analyze m))

(* The same allocation is shared exactly when a host call receives it. *)
let test_host_sink_toggle () =
  let main ~host_call =
    let m = Module_ir.create () in
    let f = Builder.create ~name:"main" ~crate:"app" ~nparams:0 () in
    let p = Builder.alloc f (Instr.Imm 8) in
    if host_call then ignore (Builder.call_host f "emit" [ Instr.Reg p ]);
    Builder.ret f None;
    Module_ir.add_func m (Builder.finish f);
    m
  in
  Alcotest.(check int) "hosts as sinks" 1 (shared_count (analyze (main ~host_call:true)));
  Alcotest.(check int) "no host call" 0 (shared_count (analyze (main ~host_call:false)))

let test_realloc_preserves_taint () =
  let m = Module_ir.create () in
  let u = Builder.create ~name:"u_take" ~crate:"clib" ~nparams:1 () in
  Builder.ret u None;
  Module_ir.add_func m (Builder.finish u);
  Module_ir.mark_untrusted m "clib";
  let f = Builder.create ~name:"main" ~crate:"app" ~nparams:0 () in
  let p = Builder.alloc f (Instr.Imm 8) in
  let q = Builder.realloc f ~addr:(Instr.Reg p) ~size:(Instr.Imm 128) in
  ignore (Builder.call f "u_take" [ Instr.Reg q ]);
  Builder.ret f None;
  Module_ir.add_func m (Builder.finish f);
  Alcotest.(check int) "original site flagged through realloc" 1 (shared_count (analyze m))

(* Soundness on executable programs: every site the dynamic profile finds,
   the static analysis finds too. *)
let test_static_superset_of_dynamic () =
  let programs =
    [ direct_share_module () ]
  in
  List.iter
    (fun m ->
      let static = analyze m in
      let dynamic =
        ok (Toolchain.Pipeline.collect_profile m
              ~inputs:[ (fun i -> ignore (Toolchain.Interp.run i "main" [])) ])
      in
      List.iter
        (fun site ->
          Alcotest.(check bool)
            (Printf.sprintf "static covers %s" (Runtime.Alloc_id.to_string site))
            true
            (Runtime.Alloc_id.Set.mem site static.Static_taint.shared))
        (Runtime.Profile.sites dynamic))
    programs

let test_static_build_runs_without_profiling () =
  (* E1 with no profiling stage at all: the statically partitioned build
     must run the shared write correctly and still protect private data. *)
  let m = Module_ir.create () in
  let u = Builder.create ~name:"u_write" ~crate:"clib" ~nparams:1 () in
  Builder.store u ~src:(Instr.Imm 1337) ~addr:(Instr.Reg 0) ();
  Builder.ret u None;
  Module_ir.add_func m (Builder.finish u);
  Module_ir.mark_untrusted m "clib";
  let f = Builder.create ~name:"main" ~crate:"app" ~nparams:0 () in
  let shared = Builder.alloc f (Instr.Imm 8) in
  let private_ = Builder.alloc f (Instr.Imm 8) in
  Builder.store f ~src:(Instr.Imm 42) ~addr:(Instr.Reg private_) ();
  ignore (Builder.call f "u_write" [ Instr.Reg shared ]);
  let a = Builder.load f (Instr.Reg shared) in
  let b = Builder.load f (Instr.Reg private_) in
  let s = Builder.binop f Instr.Add (Instr.Reg a) (Instr.Reg b) in
  Builder.ret f (Some (Instr.Reg s));
  Module_ir.add_func m (Builder.finish f);
  let build, result = ok (Toolchain.Pipeline.build_static ~mode:Pkru_safe.Config.Mpk m) in
  Alcotest.(check int) "one site statically shared" 1
    (Runtime.Alloc_id.Set.cardinal result.Static_taint.shared);
  Alcotest.(check int) "runs correctly" 1379 (Toolchain.Interp.run build.Toolchain.Pipeline.interp "main" []);
  Alcotest.(check int) "one site moved" 1 build.Toolchain.Pipeline.pass_stats.Passes.sites_moved

let suite =
  [
    Alcotest.test_case "direct flow" `Quick test_direct_flow;
    Alcotest.test_case "flow through helper + return" `Quick test_flow_through_helper_and_return;
    Alcotest.test_case "pointer-chasing closure" `Quick test_pointer_chasing_closure;
    Alcotest.test_case "over-approximation on dead branch" `Quick test_over_approximation_on_dead_branch;
    Alcotest.test_case "indirect calls conservative" `Quick test_indirect_calls_are_conservative;
    Alcotest.test_case "host sink toggle" `Quick test_host_sink_toggle;
    Alcotest.test_case "realloc preserves taint" `Quick test_realloc_preserves_taint;
    Alcotest.test_case "static superset of dynamic" `Quick test_static_superset_of_dynamic;
    Alcotest.test_case "static enforcement build" `Quick test_static_build_runs_without_profiling;
  ]
