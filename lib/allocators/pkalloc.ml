type mu_backend =
  | Mu_dlmalloc
  | Mu_jemalloc

(* A pool's allocator.  MT is always jemalloc and is called directly;
   a [heap] is what realloc and MU dispatch on. *)
type heap =
  | Dl of Dlmalloc_model.t
  | Je of Jemalloc_model.t

let heap_alloc h size =
  match h with
  | Dl a -> Dlmalloc_model.alloc a size
  | Je a -> Jemalloc_model.alloc a size

let heap_free h addr =
  match h with
  | Dl a -> Dlmalloc_model.free a addr
  | Je a -> Jemalloc_model.free a addr

let heap_usable h addr =
  match h with
  | Dl a -> Dlmalloc_model.usable_size a addr
  | Je a -> Jemalloc_model.usable_size a addr

let heap_try_resize h addr size =
  match h with
  | Dl a -> Dlmalloc_model.try_resize a addr size
  | Je a -> Jemalloc_model.try_resize a addr size

type t = {
  machine : Sim.Machine.t;
  mt_pool : Pool.t;
  mu_pool : Pool.t;
  mt : Jemalloc_model.t;
  mu : heap;
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

let create ?backing ?(mu_backend = Mu_dlmalloc) machine =
  (* Claim the trusted key from the kernel's pkey allocator, as the
     startup code does with pkey_alloc(2). *)
  let* () =
    match Vmm.Pkeys.reserve machine.Sim.Machine.pkeys Mpk.Pkey.trusted with
    | Ok () -> Ok ()
    | Error errno ->
      Error (Printf.sprintf "pkey_alloc(%d) failed: %s" (Mpk.Pkey.to_int Mpk.Pkey.trusted) errno)
  in
  (* Both pools draw on the same budget: MT and MU allocations contend
     for the session's share of fleet memory, never for address space. *)
  let* mt_pool =
    Pool.create ?backing machine ~base:Vmm.Layout.trusted_base ~size:Vmm.Layout.trusted_size
      ~pkey:Mpk.Pkey.trusted
  in
  let* mu_pool =
    Pool.create ?backing machine ~base:Vmm.Layout.untrusted_base
      ~size:Vmm.Layout.untrusted_size ~pkey:Mpk.Pkey.default
  in
  let mt = Jemalloc_model.create machine mt_pool in
  let mu =
    match mu_backend with
    | Mu_dlmalloc -> Dl (Dlmalloc_model.create machine mu_pool)
    | Mu_jemalloc -> Je (Jemalloc_model.create machine mu_pool)
  in
  Ok
    {
      machine;
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

let mt_alloc t size = if mt_failpoint_fires t then None else Jemalloc_model.alloc t.mt size
let mu_alloc t size = if mu_failpoint_fires t then None else heap_alloc t.mu size

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
  if Pool.contains t.mt_pool addr then Jemalloc_model.free t.mt addr
  else if Pool.contains t.mu_pool addr then heap_free t.mu addr
  else invalid_arg (Printf.sprintf "pkalloc: foreign pointer 0x%x" addr)

(* Reallocation never migrates between pools: "memory is always reallocated
   from the same pool its base pointer originated from" (§4.2). *)
let realloc t addr new_size =
  let trusted =
    match pool_of_addr t addr with
    | Some `Trusted -> true
    | Some `Untrusted -> false
    | None -> invalid_arg (Printf.sprintf "pkalloc: foreign pointer 0x%x" addr)
  in
  let heap = if trusted then Je t.mt else t.mu in
  let old_usable =
    match heap_usable heap addr with
    | Some n -> n
    | None -> invalid_arg (Printf.sprintf "pkalloc: realloc of dead pointer 0x%x" addr)
  in
  if heap_try_resize heap addr new_size then Some addr
  else
  match if trusted then mt_alloc t new_size else mu_alloc t new_size with
  | None -> None
  | Some fresh ->
    let to_copy = Int.min old_usable new_size in
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
          heap_free heap fresh;
          false
    in
    if not copied then None
    else begin
      heap_free heap addr;
      Some fresh
    end

let trusted_pool t = t.mt_pool
let untrusted_pool t = t.mu_pool
let trusted_stats t = Jemalloc_model.stats t.mt

let untrusted_stats t =
  match t.mu with
  | Dl a -> Dlmalloc_model.stats a
  | Je a -> Jemalloc_model.stats a
