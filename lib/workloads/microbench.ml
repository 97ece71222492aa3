type result = {
  name : string;
  ungated_cycles_per_call : float;
  gated_cycles_per_call : float;
  overhead_x : float;
}

let fail_on_error = function
  | Ok v -> v
  | Error msg -> failwith ("Workloads.Microbench: " ^ msg)

type fixture = {
  env : Pkru_safe.Env.t;
  machine : Sim.Machine.t;
  gate : Runtime.Gate.t;
  shared : int; (* an MU object both compartments may touch *)
}

let fixture () =
  let env =
    fail_on_error
      (Pkru_safe.Env.create ~profile:(Runtime.Profile.create ())
         (Pkru_safe.Config.make Pkru_safe.Config.Mpk))
  in
  let machine = Pkru_safe.Env.machine env in
  let shared = Pkru_safe.Env.malloc_untrusted env 64 in
  Sim.Machine.write_u64 machine shared 7;
  { env; machine; gate = Pkru_safe.Env.gate env; shared }

let cost f = f.machine.Sim.Machine.cpu.Sim.Cpu.cost

(* One FFI invocation: caller-side call/ret plus the callee body.  The
   gated variant brackets the body exactly as the generated wrappers do. *)
let invoke f ~gated body =
  let c = cost f in
  Sim.Machine.charge f.machine c.Sim.Cost.call;
  if gated then Runtime.Gate.call_untrusted f.gate body else body ();
  Sim.Machine.charge f.machine c.Sim.Cost.ret

let measure f ~gated ~iterations body =
  (* Warm once so demand-paging charges do not skew the per-call figure. *)
  invoke f ~gated body;
  let start = Sim.Machine.cycles f.machine in
  for _ = 1 to iterations do
    invoke f ~gated body
  done;
  float_of_int (Sim.Machine.cycles f.machine - start) /. float_of_int iterations

let empty_body _f () = ()

let read_one_body f () = ignore (Sim.Machine.read_u64 f.machine f.shared)

(* The callee invokes a T callback through a function pointer; the gated
   variant pays the reverse gate, the trusted variant a plain indirect
   call.  The callback body itself is empty. *)
let callback_body f ~gated () =
  let c = cost f in
  (* Argument marshalling before the indirect call, as the real workload's
     callee does. *)
  Sim.Machine.charge f.machine ((3 * c.Sim.Cost.alu) + (2 * c.Sim.Cost.load));
  Sim.Machine.charge f.machine c.Sim.Cost.call_indirect;
  if gated then Runtime.Gate.callback_trusted f.gate (fun () -> ())
  else ();
  Sim.Machine.charge f.machine c.Sim.Cost.ret

let work_body f ~loops () =
  let c = cost f in
  for _ = 1 to loops do
    Sim.Machine.charge f.machine ((2 * c.Sim.Cost.alu) + c.Sim.Cost.branch)
  done

let run_one ~iterations name body_of =
  (* Separate fixtures so cycle counters and pools are independent. *)
  let trusted = fixture () in
  let untrusted = fixture () in
  let ungated = measure trusted ~gated:false ~iterations (body_of trusted ~gated:false) in
  let gated = measure untrusted ~gated:true ~iterations (body_of untrusted ~gated:true) in
  { name; ungated_cycles_per_call = ungated; gated_cycles_per_call = gated;
    overhead_x = gated /. ungated }

let run ?(iterations = 20_000) () =
  [
    run_one ~iterations "Empty" (fun f ~gated:_ -> empty_body f);
    run_one ~iterations "Read-One" (fun f ~gated:_ -> read_one_body f);
    run_one ~iterations "Callback" (fun f ~gated -> callback_body f ~gated);
  ]

(* {2 The software-TLB identity check}

   A page-hot loop — the TLB's best case and the checked path's common
   case — run twice on identical machines, once with the TLB and once
   forced down the slow resolve path.  Simulated cycles must agree
   exactly: the TLB is architecturally invisible.  Its host cost is
   measured by perfbench's [machine.read_hit_ns]/[read_miss_ns] probes. *)

type tlb_result = {
  pages : int;
  iters : int;
  cycles_on : int;
  cycles_off : int;
  tlb : Sim.Tlb.stats;
}

let tlb_base = 0x4000_0000

let tlb_machine ~tlb ~pages =
  let machine = Sim.Machine.create ~tlb () in
  (match
     Vmm.Page_table.map_now machine.Sim.Machine.page_table ~base:tlb_base
       ~size:(pages * Vmm.Layout.page_size) ~prot:Vmm.Prot.read_write
       ~pkey:Mpk.Pkey.default
   with
  | Ok () -> ()
  | Error msg -> failwith ("Workloads.Microbench: " ^ msg));
  machine

(* Each iteration reads and rewrites one u64 in every page of the working
   set, so with [pages] <= the TLB size every access after the first
   round is a hit. *)
let tlb_workload machine ~pages ~iters =
  for _ = 1 to iters do
    for p = 0 to pages - 1 do
      let addr = tlb_base + (p * Vmm.Layout.page_size) in
      let v = Sim.Machine.read_u64 machine addr in
      Sim.Machine.write_u64 machine addr (v + 1)
    done
  done

let tlb_run ~tlb ~pages ~iters =
  let machine = tlb_machine ~tlb ~pages in
  (* One warm-up round so both variants start page-hot. *)
  tlb_workload machine ~pages ~iters:1;
  tlb_workload machine ~pages ~iters;
  (Sim.Machine.cycles machine, Sim.Machine.tlb_stats machine)

let tlb_hot () =
  let pages = 8 and iters = 200_000 in
  let cycles_off, _ = tlb_run ~tlb:false ~pages ~iters in
  let cycles_on, tlb = tlb_run ~tlb:true ~pages ~iters in
  { pages; iters; cycles_on; cycles_off; tlb }

let sweep ~loop_counts ?(iterations = 5_000) () =
  List.map
    (fun loops ->
      let r = run_one ~iterations (Printf.sprintf "work-%d" loops)
          (fun f ~gated:_ -> work_body f ~loops)
      in
      (loops, r.overhead_x))
    loop_counts
