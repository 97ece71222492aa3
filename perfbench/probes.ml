(* Layer probes: host nanoseconds per call of one checked operation.

   Each probe times [reps] rounds of [n] calls, reports the median round,
   and asserts that the calls had exactly the simulated effect expected of
   the checked path (TLB hits, TLB misses, cycles, gate transitions,
   allocations) — so a probe cannot silently time a shortcut. *)

module Env = Pkru_safe.Env

exception Probe_failed of string

let n = 100_000
let reps = 5

let expect what ~expected ~got =
  if expected <> got then
    raise (Probe_failed (Printf.sprintf "%s: expected %d, measured %d" what expected got))

(* Median host ns per call of [f] over [reps] rounds of [n] calls. *)
let time_ns name f =
  Util.Stats.percentile 50.0
    (List.init reps (fun _ ->
         Trace.call name (fun () ->
             let t0 = Trace.now () in
             for _ = 1 to n do
               f ()
             done;
             (Trace.now () -. t0) *. 1e9 /. float_of_int n)))

let fresh_env mode = Ops.ok "Env.create" (Env.create ~profile:(Runtime.Profile.create ()) (Pkru_safe.Config.make mode))

let alloc_mt pk size =
  match Allocators.Pkalloc.alloc_trusted pk size with
  | Some a -> a
  | None -> raise (Probe_failed "pkalloc refused the probe buffer")

let total = n * reps

(* An 8-byte read of a TLB-resident page. *)
let read_hit_ns () =
  let env = fresh_env Pkru_safe.Config.Mpk in
  let m = Env.machine env in
  let addr = alloc_mt (Env.pkalloc env) 64 in
  ignore (Sim.Machine.read_u64 m addr);
  let before = Sim.Machine.tlb_stats m in
  let ns = time_ns "machine.read_u64" (fun () -> ignore (Sim.Machine.read_u64 m addr)) in
  let after = Sim.Machine.tlb_stats m in
  expect "read_hit TLB hits" ~expected:total ~got:(after.Sim.Tlb.hits - before.Sim.Tlb.hits);
  expect "read_hit TLB misses" ~expected:0 ~got:(after.Sim.Tlb.misses - before.Sim.Tlb.misses);
  ns

(* Alternating reads of two pages [Tlb.size] pages apart: they share a
   direct-mapped TLB slot, so every read refills it. *)
let read_miss_ns () =
  let env = fresh_env Pkru_safe.Config.Mpk in
  let m = Env.machine env in
  let stride = Sim.Tlb.size * Vmm.Layout.page_size in
  let a = alloc_mt (Env.pkalloc env) (stride + 64) in
  let b = a + stride in
  ignore (Sim.Machine.read_u64 m a);
  ignore (Sim.Machine.read_u64 m b);
  let flip = ref false in
  let before = Sim.Machine.tlb_stats m in
  let ns =
    time_ns "machine.read_u64_miss" (fun () ->
        flip := not !flip;
        ignore (Sim.Machine.read_u64 m (if !flip then a else b)))
  in
  let after = Sim.Machine.tlb_stats m in
  expect "read_miss TLB misses" ~expected:total ~got:(after.Sim.Tlb.misses - before.Sim.Tlb.misses);
  expect "read_miss TLB hits" ~expected:0 ~got:(after.Sim.Tlb.hits - before.Sim.Tlb.hits);
  ns

let charge_ns () =
  let env = fresh_env Pkru_safe.Config.Mpk in
  let m = Env.machine env in
  let before = Sim.Machine.cycles m in
  let ns = time_ns "machine.charge" (fun () -> Sim.Machine.charge m 1) in
  expect "charge cycles" ~expected:total ~got:(Sim.Machine.cycles m - before);
  ns

(* One T→U→T round trip through the call gates. *)
let gate_roundtrip_ns () =
  let env = fresh_env Pkru_safe.Config.Mpk in
  let before = Env.transitions env in
  let ns = time_ns "core.ffi_call" (fun () -> Env.ffi_call env ignore) in
  expect "gate transitions" ~expected:(2 * total) ~got:(Env.transitions env - before);
  ns

let alloc_free_ns pool =
  let env = fresh_env Pkru_safe.Config.Mpk in
  let pk = Env.pkalloc env in
  let alloc, stats, name =
    match pool with
    | `Mt -> (Allocators.Pkalloc.alloc_trusted, Allocators.Pkalloc.trusted_stats, "allocators.mt_alloc_free")
    | `Mu -> (Allocators.Pkalloc.alloc_untrusted, Allocators.Pkalloc.untrusted_stats, "allocators.mu_alloc_free")
  in
  let allocs () = (stats pk).Allocators.Alloc_stats.allocs in
  let frees () = (stats pk).Allocators.Alloc_stats.frees in
  let a0 = allocs () and f0 = frees () in
  let ns =
    time_ns name (fun () ->
        match alloc ?site:None pk 64 with
        | Some addr -> Allocators.Pkalloc.dealloc pk addr
        | None -> raise (Probe_failed (name ^ ": allocation refused")))
  in
  expect (name ^ " allocs") ~expected:total ~got:(allocs () - a0);
  expect (name ^ " frees") ~expected:total ~got:(frees () - f0);
  ns

(* Engine front end over the workload's own scripts: host microseconds per
   KiB of source for tokenize + parse + bytecode compile. *)
let front_us_per_kb scripts =
  let env = fresh_env Pkru_safe.Config.Base in
  let engine = Engine.create env in
  let heap = Engine.heap engine in
  let bytes = ref 0 in
  let t0 = Trace.now () in
  List.iter
    (fun src ->
      bytes := !bytes + String.length src;
      match Engine.Value.str_of_string heap src with
      | Engine.Value.Str s ->
        let tokens = Trace.call "engine.lex" (fun () -> Engine.Lexer.tokenize heap s) in
        let ast = Trace.call "engine.parse" (fun () -> Engine.Parser.parse tokens) in
        ignore (Trace.call "engine.compile" (fun () -> Engine.Bytecode.compile ast))
      | _ -> raise (Probe_failed "str_of_string did not return a string"))
    scripts;
  (Trace.now () -. t0) *. 1e6 /. (float_of_int (max 1 !bytes) /. 1024.0)
