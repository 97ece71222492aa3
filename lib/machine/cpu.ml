type t = {
  id : int;
  cost : Cost.t;
  mutable pkru : Mpk.Pkru.t;
  mutable trap_flag : bool;
  mutable cycles : int;
  mutable wrpkru_retired : int;
  mutable pkru_epoch : int;
  retired_acc : int ref;
  tlb : Tlb.t;
  ctx : Telemetry.Ctx.t;
}

let create ?(cost = Cost.default) ?(id = 0) ?retired ?(ctx = Telemetry.Ctx.create ()) () =
  let retired_acc = match retired with Some r -> r | None -> ref 0 in
  {
    id;
    cost;
    pkru = Mpk.Pkru.all_enabled;
    trap_flag = false;
    cycles = 0;
    wrpkru_retired = 0;
    pkru_epoch = 0;
    retired_acc;
    tlb = Tlb.create ();
    ctx;
  }

(* Every retired cycle flows through here, so this is where the sampling
   profiler and the heap census tick and where the machine-wide retired
   accumulator grows (keeping [Machine.total_cycles] O(1) instead of a
   fold over harts).  The ticks charge nothing back, so sampled/censused
   and plain runs retire identical cycle counts; disabled, the cost is
   one load and one branch each, same as the sink discipline. *)
let charge t n =
  t.cycles <- t.cycles + n;
  t.retired_acc := !(t.retired_acc) + n;
  let ctx = t.ctx in
  (match ctx.Telemetry.Ctx.sampler with
  | None -> ()
  | Some sampler -> Telemetry.Sampler.tick sampler n);
  match ctx.Telemetry.Ctx.census with
  | None -> ()
  | Some census -> Telemetry.Census.tick census ~sink:ctx.Telemetry.Ctx.sink ~cpu:t.id n

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

let reset_cycles t =
  t.retired_acc := !(t.retired_acc) - t.cycles;
  t.cycles <- 0
