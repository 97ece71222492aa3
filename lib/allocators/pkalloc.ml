type mu_backend =
  | Mu_dlmalloc
  | Mu_jemalloc

type backend = {
  b_alloc : int -> int option;
  b_free : int -> unit;
  b_usable : int -> int option;
  b_try_resize : int -> int -> bool;
  b_stats : Alloc_stats.t;
}

let jemalloc_backend machine pool =
  let a = Jemalloc_model.create machine pool in
  {
    b_alloc = Jemalloc_model.alloc a;
    b_free = Jemalloc_model.free a;
    b_usable = Jemalloc_model.usable_size a;
    b_try_resize = Jemalloc_model.try_resize a;
    b_stats = Jemalloc_model.stats a;
  }

let dlmalloc_backend machine pool =
  let a = Dlmalloc_model.create machine pool in
  {
    b_alloc = Dlmalloc_model.alloc a;
    b_free = Dlmalloc_model.free a;
    b_usable = Dlmalloc_model.usable_size a;
    b_try_resize = Dlmalloc_model.try_resize a;
    b_stats = Dlmalloc_model.stats a;
  }

type t = {
  machine : Sim.Machine.t;
  trusted_pkey : Mpk.Pkey.t;
  mt_pool : Pool.t;
  mu_pool : Pool.t;
  mt : backend;
  mu : backend;
  (* Site-override table: allocation sites quarantined by the mitigator's
     Promote policy.  Keys are printed AllocIds (this library sits below
     the runtime and cannot name Alloc_id).  The runtime consults it to
     redirect future MT allocations from these sites to MU. *)
  quarantined : (string, unit) Hashtbl.t;
  mutable quarantine_gen : int; (* bumped by every new quarantine *)
  (* Fail-points (chaos harness): force the nth upcoming allocation on a
     pool to report exhaustion.  0 = disarmed; 1 = fail the next. *)
  mutable fail_mt_in : int;
  mutable fail_mu_in : int;
}

let ( let* ) r f =
  match r with
  | Ok v -> f v
  | Error _ as e -> e

let create ?backing ?(mu_backend = Mu_dlmalloc) ?(trusted_pkey = Mpk.Pkey.of_int 1) machine =
  (* Claim the trusted key from the kernel's pkey allocator, as the
     startup code does with pkey_alloc(2). *)
  let* () =
    match Vmm.Pkeys.reserve machine.Sim.Machine.pkeys trusted_pkey with
    | Ok () -> Ok ()
    | Error errno -> Error (Printf.sprintf "pkey_alloc(%d) failed: %s" (Mpk.Pkey.to_int trusted_pkey) errno)
  in
  (* Both pools draw on the same budget: MT and MU allocations contend
     for the session's share of fleet memory, never for address space. *)
  let* mt_pool =
    Pool.create ?backing machine ~base:Vmm.Layout.trusted_base ~size:Vmm.Layout.trusted_size
      ~pkey:trusted_pkey
  in
  let* mu_pool =
    Pool.create ?backing machine ~base:Vmm.Layout.untrusted_base
      ~size:Vmm.Layout.untrusted_size ~pkey:Mpk.Pkey.default
  in
  let mt = jemalloc_backend machine mt_pool in
  let mu =
    match mu_backend with
    | Mu_dlmalloc -> dlmalloc_backend machine mu_pool
    | Mu_jemalloc -> jemalloc_backend machine mu_pool
  in
  Ok
    {
      machine;
      trusted_pkey;
      mt_pool;
      mu_pool;
      mt;
      mu;
      quarantined = Hashtbl.create 16;
      quarantine_gen = 0;
      fail_mt_in = 0;
      fail_mu_in = 0;
    }

let machine t = t.machine
let trusted_pkey t = t.trusted_pkey

let retire t =
  Pool.retire t.mt_pool;
  Pool.retire t.mu_pool

(* Allocation telemetry: compartment-tagged events (carrying the AllocId
   the instrumented global-allocator surface passes down) and per-pool
   size histograms.  Event construction happens only under an installed
   sink. *)
let note_alloc t ~compartment ~histogram ~site ~size result =
  (match (result, t.machine.Sim.Machine.ctx.Telemetry.Ctx.sink) with
  | Some addr, Some sink ->
    Telemetry.Sink.observe sink histogram size;
    Telemetry.Sink.emit sink ~ts:(Sim.Machine.cycles t.machine)
      ~cpu:t.machine.Sim.Machine.cpu.Sim.Cpu.id
      (Telemetry.Event.Alloc { compartment; site; addr; size })
  | _ -> ());
  result

(* Fail-point bookkeeping (chaos harness).  The armed counter ticks down on
   every allocation attempt against the pool and fires — the attempt
   reports exhaustion — exactly once, when it reaches 1; afterwards the
   pool behaves normally again. *)
let fail_nth_alloc t pool n =
  if n < 0 then invalid_arg "pkalloc: fail_nth_alloc expects n >= 0";
  match pool with
  | `Trusted -> t.fail_mt_in <- n
  | `Untrusted -> t.fail_mu_in <- n

let mt_failpoint_fires t =
  match t.fail_mt_in with
  | 0 -> false
  | 1 ->
    t.fail_mt_in <- 0;
    true
  | n ->
    t.fail_mt_in <- n - 1;
    false

let mu_failpoint_fires t =
  match t.fail_mu_in with
  | 0 -> false
  | 1 ->
    t.fail_mu_in <- 0;
    true
  | n ->
    t.fail_mu_in <- n - 1;
    false

let mt_alloc t size = if mt_failpoint_fires t then None else t.mt.b_alloc size
let mu_alloc t size = if mu_failpoint_fires t then None else t.mu.b_alloc size

let alloc_trusted ?site t size =
  note_alloc t ~compartment:Telemetry.Event.Trusted ~histogram:"alloc_size_mt_bytes" ~site
    ~size (mt_alloc t size)

let alloc_untrusted ?site t size =
  note_alloc t ~compartment:Telemetry.Event.Untrusted ~histogram:"alloc_size_mu_bytes" ~site
    ~size (mu_alloc t size)

(* Quarantine (mitigator Promote policy): sites recorded here should have
   their *future* allocations served from MU.  Live objects keep their
   pool — the provenance invariant (§4.2) is about object identity, and
   realloc below still never migrates. *)
let quarantine_site t site =
  if not (Hashtbl.mem t.quarantined site) then begin
    Hashtbl.replace t.quarantined site ();
    t.quarantine_gen <- t.quarantine_gen + 1
  end

let site_quarantined t site = Hashtbl.mem t.quarantined site
let quarantined_count t = Hashtbl.length t.quarantined
let quarantine_generation t = t.quarantine_gen

let quarantined_sites t =
  Hashtbl.fold (fun site () acc -> site :: acc) t.quarantined [] |> List.sort compare

let pool_of_addr t addr =
  if Pool.contains t.mt_pool addr then Some `Trusted
  else if Pool.contains t.mu_pool addr then Some `Untrusted
  else None

let backend_of_addr t addr =
  match pool_of_addr t addr with
  | Some `Trusted -> t.mt
  | Some `Untrusted -> t.mu
  | None -> invalid_arg (Printf.sprintf "pkalloc: foreign pointer 0x%x" addr)

let dealloc t addr =
  (match t.machine.Sim.Machine.ctx.Telemetry.Ctx.sink with
  | None -> ()
  | Some sink ->
    let compartment =
      match pool_of_addr t addr with
      | Some `Untrusted -> Telemetry.Event.Untrusted
      | Some `Trusted | None -> Telemetry.Event.Trusted
    in
    Telemetry.Sink.emit sink ~ts:(Sim.Machine.cycles t.machine)
      ~cpu:t.machine.Sim.Machine.cpu.Sim.Cpu.id
      (Telemetry.Event.Free { compartment; addr }));
  (backend_of_addr t addr).b_free addr

(* Reallocation never migrates between pools: "memory is always reallocated
   from the same pool its base pointer originated from" (§4.2). *)
let realloc t addr new_size =
  let pool =
    match pool_of_addr t addr with
    | Some p -> p
    | None -> invalid_arg (Printf.sprintf "pkalloc: foreign pointer 0x%x" addr)
  in
  let backend = match pool with `Trusted -> t.mt | `Untrusted -> t.mu in
  let old_usable =
    match backend.b_usable addr with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "pkalloc: realloc of dead pointer 0x%x" addr)
  in
  if backend.b_try_resize addr new_size then Some addr
  else
  let fresh_alloc = match pool with `Trusted -> mt_alloc t | `Untrusted -> mu_alloc t in
  match fresh_alloc new_size with
  | None -> None
  | Some fresh ->
    let to_copy = min old_usable new_size in
    let copied =
      if to_copy = 0 then true
      else
        (* The copy goes through checked machine accesses, so a protection
           or pkey fault mid-copy is possible.  On failure the fresh block
           must not leak: free it and report failure with the original
           allocation still intact (realloc(3) contract). *)
        match
          let payload = Sim.Machine.read_bytes t.machine addr to_copy in
          Sim.Machine.write_bytes t.machine fresh payload
        with
        | () -> true
        | exception Vmm.Fault.Unhandled _ ->
          backend.b_free fresh;
          false
    in
    if not copied then None
    else begin
      backend.b_free addr;
      Some fresh
    end

let trusted_pool t = t.mt_pool
let untrusted_pool t = t.mu_pool
let trusted_stats t = t.mt.b_stats
let untrusted_stats t = t.mu.b_stats

let percent_untrusted_bytes t =
  let mt = float_of_int t.mt.b_stats.Alloc_stats.bytes_allocated in
  let mu = float_of_int t.mu.b_stats.Alloc_stats.bytes_allocated in
  if mt +. mu = 0.0 then 0.0 else 100.0 *. mu /. (mt +. mu)
