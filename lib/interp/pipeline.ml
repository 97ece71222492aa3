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

let build ?cost ?mu_backend ?profile ?(hosts = []) ~mode source =
  let config = Pkru_safe.Config.make ?mu_backend ?cost mode in
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

let build_static ?cost ?mu_backend ?(hosts = []) ~mode source =
  (* The analysis needs stable AllocIds: run it on an id-assigned copy, and
     rely on assignment being deterministic so the compile pipeline's own
     pass yields identical ids. *)
  let analyzed = Ir.Module_ir.copy source in
  ignore (Ir.Passes.assign_alloc_ids analyzed);
  let result = Ir.Static_taint.analyze analyzed in
  let profile = Runtime.Profile.create () in
  Runtime.Alloc_id.Set.iter (Runtime.Profile.record profile) result.Ir.Static_taint.shared;
  let* built = build ?cost ?mu_backend ~profile ~hosts ~mode source in
  Ok (built, result)

let collect_profile ?hosts source ~inputs =
  let* profiling = build ?hosts ~mode:Pkru_safe.Config.Profiling source in
  List.iter (fun input -> input profiling.interp) inputs;
  Ok (Pkru_safe.Env.recorded_profile profiling.env)
