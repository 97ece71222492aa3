type t = {
  id : int;
  cost : Cost.t;
  mutable pkru : Mpk.Pkru.t;
  mutable trap_flag : bool;
  mutable cycles : int;
  mutable wrpkru_retired : int;
  mutable pkru_epoch : int;
  tlb : Tlb.t;
  ctx : Telemetry.Ctx.t;
}

let create ?(cost = Cost.default) ?(id = 0) ?(ctx = Telemetry.Ctx.create ()) () =
  {
    id;
    cost;
    pkru = Mpk.Pkru.all_enabled;
    trap_flag = false;
    cycles = 0;
    wrpkru_retired = 0;
    pkru_epoch = 0;
    tlb = Tlb.create ();
    ctx;
  }

(* The per-cycle telemetry hooks: the sampling profiler and the heap
   census.  They charge nothing back, so sampled/censused and plain runs
   retire identical cycle counts. *)
let[@inline never] tick_hooks t n =
  let ctx = t.ctx in
  (match ctx.Telemetry.Ctx.sampler with
  | None -> ()
  | Some sampler -> Telemetry.Sampler.tick sampler n);
  match ctx.Telemetry.Ctx.census with
  | None -> ()
  | Some census -> Telemetry.Census.tick census ~sink:ctx.Telemetry.Ctx.sink ~cpu:t.id n

(* Every retired cycle flows through here, inlined into its callers
   (the AST tier's tick, [Machine]'s checked accesses); the hooks stay
   out of line. *)
let[@inline] charge t n =
  t.cycles <- t.cycles + n;
  if t.ctx.Telemetry.Ctx.hooked then tick_hooks t n

(* All intentional PKRU updates come through here so the epoch advances
   and cached permission masks in the hart's TLB go stale.  (Direct
   [t.pkru <- ...] stores are still caught by the TLB's raw-value
   comparison; the epoch is the documented invalidation protocol.) *)
let set_pkru t v =
  t.pkru <- v;
  t.pkru_epoch <- t.pkru_epoch + 1

let wrpkru t v =
  charge t t.cost.Cost.wrpkru;
  t.wrpkru_retired <- t.wrpkru_retired + 1;
  set_pkru t v;
  match t.ctx.Telemetry.Ctx.sink with
  | None -> ()
  | Some sink ->
    Telemetry.Sink.emit sink ~ts:t.cycles ~cpu:t.id
      (Telemetry.Event.Wrpkru { value = Mpk.Pkru.to_int v })

let rdpkru t =
  charge t t.cost.Cost.rdpkru;
  t.pkru

let cycles t = t.cycles

let reset_cycles t = t.cycles <- 0
