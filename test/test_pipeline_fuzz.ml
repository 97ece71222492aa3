(* Property-based integration tests of the whole toolchain: random
   two-crate programs are compiled into base and (profiled) enforcement
   builds, which must agree on results; the static analysis must cover
   everything the dynamic profile finds; and the number of moved sites
   must equal the number of distinct allocations that really crossed the
   boundary. *)

open Ir

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

type plan = {
  n_allocs : int;
  reads_by_u : bool array;      (* alloc i is passed to an untrusted reader *)
  via_helper : bool array;      (* ... through a trusted forwarding helper *)
  chained : (int * int) option; (* store &alloc_b into alloc_a; U derefs twice *)
}

let random_plan rng =
  let n_allocs = 2 + Util.Rng.int rng 4 in
  let reads_by_u = Array.init n_allocs (fun _ -> Util.Rng.bool rng) in
  let via_helper = Array.init n_allocs (fun _ -> Util.Rng.bool rng) in
  let chained =
    if n_allocs >= 2 && Util.Rng.int rng 3 = 0 then
      let a = Util.Rng.int rng n_allocs in
      let b = (a + 1 + Util.Rng.int rng (n_allocs - 1)) mod n_allocs in
      Some (a, b)
    else None
  in
  { n_allocs; reads_by_u; via_helper; chained }

(* Build the program for a plan.  main allocates n objects with known
   values, routes some of them to untrusted readers (directly or through a
   helper), optionally builds an A->B pointer chain handed to a
   double-dereferencing untrusted function, and returns a checksum. *)
let program_of_plan plan =
  let m = Module_ir.create () in
  (* clib.u_read(p): returns *p. *)
  let u = Builder.create ~name:"u_read" ~crate:"clib" ~nparams:1 () in
  let v = Builder.load u (Instr.Reg 0) in
  Builder.ret u (Some (Instr.Reg v));
  Module_ir.add_func m (Builder.finish u);
  (* clib.u_deref2(p): returns **p. *)
  let u2 = Builder.create ~name:"u_deref2" ~crate:"clib" ~nparams:1 () in
  let inner = Builder.load u2 (Instr.Reg 0) in
  let v2 = Builder.load u2 (Instr.Reg inner) in
  Builder.ret u2 (Some (Instr.Reg v2));
  Module_ir.add_func m (Builder.finish u2);
  Module_ir.mark_untrusted m "clib";
  (* app.forward(p): helper hop. *)
  let fwd = Builder.create ~name:"forward" ~crate:"app" ~nparams:1 () in
  let r = Builder.call fwd ~ret:true "u_read" [ Instr.Reg 0 ] in
  Builder.ret fwd (Some (Instr.Reg (Option.get r)));
  Module_ir.add_func m (Builder.finish fwd);
  (* app.main. *)
  let f = Builder.create ~name:"main" ~crate:"app" ~nparams:0 () in
  let allocs =
    Array.init plan.n_allocs (fun i ->
        let p = Builder.alloc f (Instr.Imm (16 + (16 * i))) in
        Builder.store f ~src:(Instr.Imm (100 + (7 * i))) ~addr:(Instr.Reg p) ();
        p)
  in
  let sum = ref (Builder.const f 0) in
  let add value = sum := Builder.binop f Instr.Add (Instr.Reg !sum) (Instr.Reg value) in
  Array.iteri
    (fun i p ->
      if plan.reads_by_u.(i) then begin
        let callee = if plan.via_helper.(i) then "forward" else "u_read" in
        let r = Builder.call f ~ret:true callee [ Instr.Reg p ] in
        add (Option.get r)
      end)
    allocs;
  (match plan.chained with
  | Some (a, b) ->
    (* a's payload becomes a pointer to b; U chases it. *)
    Builder.store f ~src:(Instr.Reg allocs.(b)) ~addr:(Instr.Reg allocs.(a)) ();
    let r = Builder.call f ~ret:true "u_deref2" [ Instr.Reg allocs.(a) ] in
    add (Option.get r)
  | None -> ());
  (* main also loads every object itself.  The chained object holds a raw
     pointer whose numeric value depends on the heap layout, so main
     dereferences it instead of summing the address. *)
  let chained_holder =
    match plan.chained with
    | Some (a, _) -> Some a
    | None -> None
  in
  Array.iteri
    (fun i p ->
      let v = Builder.load f (Instr.Reg p) in
      if chained_holder = Some i then begin
        let through = Builder.load f (Instr.Reg v) in
        add through
      end
      else add v)
    allocs;
  Builder.ret f (Some (Instr.Reg !sum));
  Module_ir.add_func m (Builder.finish f);
  m

let expected_shared plan =
  let shared = Array.copy plan.reads_by_u in
  (match plan.chained with
  | Some (a, b) ->
    shared.(a) <- true;
    shared.(b) <- true
  | None -> ());
  Array.fold_left (fun acc flag -> if flag then acc + 1 else acc) 0 shared

(* Stages 2-4 as the pipeline command runs them: profile with [inputs],
   then build the enforcing image. *)
let full_cycle source ~inputs =
  Result.bind (Toolchain.Pipeline.collect_profile source ~inputs) (fun profile ->
      Toolchain.Pipeline.build ~profile ~mode:Pkru_safe.Config.Mpk source)

let run_main build = Toolchain.Interp.run build.Toolchain.Pipeline.interp "main" []

let prop_pipeline_equivalence =
  QCheck.Test.make ~count:40 ~name:"fuzz: base and enforced builds agree"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Util.Rng.create seed in
      let plan = random_plan rng in
      let source = program_of_plan plan in
      let base = ok (Toolchain.Pipeline.build ~mode:Pkru_safe.Config.Base source) in
      let expected = run_main base in
      let enforced =
        ok (full_cycle source
              ~inputs:[ (fun interp -> ignore (Toolchain.Interp.run interp "main" [])) ])
      in
      let moved = enforced.Toolchain.Pipeline.pass_stats.Passes.sites_moved in
      run_main enforced = expected && moved = expected_shared plan)

let prop_static_covers_dynamic =
  QCheck.Test.make ~count:40 ~name:"fuzz: static analysis covers the dynamic profile"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Util.Rng.create (seed + 77) in
      let plan = random_plan rng in
      let source = program_of_plan plan in
      let dynamic =
        ok (Toolchain.Pipeline.collect_profile source
              ~inputs:[ (fun interp -> ignore (Toolchain.Interp.run interp "main" [])) ])
      in
      let analyzed = Module_ir.copy source in
      ignore (Passes.assign_alloc_ids analyzed);
      let static = Static_taint.analyze analyzed in
      List.for_all
        (fun site -> Runtime.Alloc_id.Set.mem site static.Static_taint.shared)
        (Runtime.Profile.sites dynamic))

let prop_static_build_agrees =
  QCheck.Test.make ~count:25 ~name:"fuzz: statically partitioned build agrees with base"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Util.Rng.create (seed + 4242) in
      let plan = random_plan rng in
      let source = program_of_plan plan in
      let base = ok (Toolchain.Pipeline.build ~mode:Pkru_safe.Config.Base source) in
      let static_build, _ =
        ok (Toolchain.Pipeline.build_static ~mode:Pkru_safe.Config.Mpk source)
      in
      run_main static_build = run_main base)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_pipeline_equivalence;
    QCheck_alcotest.to_alcotest prop_static_covers_dynamic;
    QCheck_alcotest.to_alcotest prop_static_build_agrees;
  ]
