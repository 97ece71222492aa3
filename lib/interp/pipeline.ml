type host_spec = string * (Pkru_safe.Env.t -> Interp.host_fn)

type build = {
  interp : Interp.t;
  env : Pkru_safe.Env.t;
  pass_stats : Ir.Passes.stats;
}

let ( let* ) r f =
  match r with
  | Ok v -> f v
  | Error _ as e -> e

let build ?profile ?(hosts = []) ~mode source =
  let config = Pkru_safe.Config.make mode in
  let gates = Pkru_safe.Config.gates_active config in
  let instrument = mode = Pkru_safe.Config.Profiling in
  let in_profile =
    if Pkru_safe.Config.split_heap config then
      Option.map (fun p id -> Runtime.Profile.mem p id) profile
    else None
  in
  let host_exists name = List.mem_assoc name hosts in
  let* compiled, pass_stats =
    Ir.Passes.compile ~gates ~instrument ?profile:in_profile ~hosts:host_exists source
  in
  let* env = Pkru_safe.Env.create ?profile config in
  let interp = Interp.create compiled env in
  List.iter (fun (name, factory) -> Interp.register_host interp name (factory env)) hosts;
  Ok { interp; env; pass_stats }

let build_static ?(hosts = []) ~mode source =
  (* The analysis needs stable AllocIds: run it on an id-assigned copy, and
     rely on assignment being deterministic so the compile pipeline's own
     pass yields identical ids. *)
  let analyzed = Ir.Module_ir.copy source in
  ignore (Ir.Passes.assign_alloc_ids analyzed);
  let result = Ir.Static_taint.analyze analyzed in
  let profile = Runtime.Profile.create () in
  Runtime.Alloc_id.Set.iter (Runtime.Profile.record profile) result.Ir.Static_taint.shared;
  let* built = build ~profile ~hosts ~mode source in
  Ok (built, result)

let collect_profile ?hosts source ~inputs =
  let* profiling = build ?hosts ~mode:Pkru_safe.Config.Profiling source in
  List.iter (fun input -> input profiling.interp) inputs;
  Ok (Pkru_safe.Env.recorded_profile profiling.env)

let e1_source () =
  let open Ir in
  let m = Module_ir.create () in
  let u = Builder.create ~name:"untrusted_write" ~crate:"clib" ~nparams:1 () in
  Builder.store u ~src:(Instr.Imm 1337) ~addr:(Instr.Reg 0) ();
  Builder.ret u None;
  Module_ir.add_func m (Builder.finish u);
  Module_ir.mark_untrusted m "clib";
  let f = Builder.create ~name:"main" ~crate:"app" ~nparams:0 () in
  let shared = Builder.alloc f (Instr.Imm 64) in
  Builder.store f ~src:(Instr.Imm 0) ~addr:(Instr.Reg shared) ();
  ignore (Builder.call f "untrusted_write" [ Instr.Reg shared ]);
  let v = Builder.load f (Instr.Reg shared) in
  Builder.ret f (Some (Instr.Reg v));
  Module_ir.add_func m (Builder.finish f);
  m
