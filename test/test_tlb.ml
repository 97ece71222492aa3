(* Tests for the software TLB: architectural invisibility (cycle counts,
   fault sequences and event traces bit-identical with the TLB on or
   off), the access check (each entry's key against the live PKRU, the
   mapping epoch), and the observability plumbing (machine stats, runner-injected
   sink counters, Prometheus families). *)

let page = Vmm.Layout.page_size
let key = Mpk.Pkey.of_int
let base = 0x20_0000

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  nn = 0 || scan 0

let machine_with_region ?(tlb = true) ?(pkey = key 1) ?(pages = 4) () =
  let m = Sim.Machine.create ~tlb () in
  ok
    (Vmm.Page_table.reserve m.Sim.Machine.page_table ~base ~size:(pages * page)
       ~prot:Vmm.Prot.read_write ~pkey);
  m

let trace_json sink =
  Util.Json.to_string
    (Util.Json.List (List.map Telemetry.Event.record_to_json (Telemetry.Sink.events sink)))

(* --- Architectural invisibility --- *)

(* Full-stack equivalence: the same workload under the same configuration
   must produce identical simulated cycles, gate transitions and event
   traces with the TLB on and off.  (Sink counters are excluded: the
   runner's injected tlb_* counters differ by design.)  Profiling mode
   additionally exercises the fault + single-step path. *)
let check_equivalence mode () =
  let bench =
    Workloads.Bench_def.bench ~page:(Workloads.Dom_scripts.page ~rows:6) "tlb-eq"
      (Workloads.Dom_scripts.dom_attr ~iters:12)
  in
  let profile = Workloads.Runner.profile_bench bench in
  let run tlb =
    Workloads.Runner.run_config ~telemetry:true ~profile
      { (Pkru_safe.Config.make mode) with Pkru_safe.Config.tlb }
      bench
  in
  let on = run true in
  let off = run false in
  Alcotest.(check int) "cycles identical" off.Workloads.Runner.cycles on.Workloads.Runner.cycles;
  Alcotest.(check int) "transitions identical" off.Workloads.Runner.transitions
    on.Workloads.Runner.transitions;
  match (on.Workloads.Runner.trace, off.Workloads.Runner.trace) with
  | Some s_on, Some s_off ->
    Alcotest.(check int) "events_total identical" (Telemetry.Sink.events_total s_off)
      (Telemetry.Sink.events_total s_on);
    Alcotest.(check string) "event trace bit-identical" (trace_json s_off) (trace_json s_on);
    Alcotest.(check bool) "tlb-on run actually hit" true
      (Telemetry.Sink.count s_on "tlb_hit" > 0);
    Alcotest.(check int) "tlb-off run never hit" 0 (Telemetry.Sink.count s_off "tlb_hit")
  | _ -> Alcotest.fail "expected traces from both runs"

(* Machine-level equivalence on the profiler's fault + trap-flag path:
   every access faults, is single-stepped with a permissive PKRU, and the
   restrictive view is restored by the trap handler.  Cycles and the full
   event sequence must not depend on the TLB. *)
let single_step_sequence ~tlb =
  let m = machine_with_region ~tlb () in
  Sim.Machine.write_u64 m base 7;
  let restricted = Mpk.Pkru.all_disabled_except [] in
  let sink = Telemetry.Sink.create () in
  Telemetry.Ctx.with_sink m.Sim.Machine.ctx sink (fun () ->
      Sim.Cpu.set_pkru m.Sim.Machine.cpu restricted;
      Sim.Signals.register_trap m.Sim.Machine.signals (fun () ->
          Sim.Cpu.set_pkru m.Sim.Machine.cpu restricted);
      Sim.Signals.register_segv m.Sim.Machine.signals (fun f ->
          match f.Vmm.Fault.kind with
          | Vmm.Fault.Pkey_violation _ ->
            Sim.Cpu.set_pkru m.Sim.Machine.cpu Mpk.Pkru.all_enabled;
            m.Sim.Machine.cpu.Sim.Cpu.trap_flag <- true;
            Sim.Signals.Retry
          | _ -> Sim.Signals.Pass);
      for i = 0 to 7 do
        ignore (Sim.Machine.read_u64 m (base + (i mod 2 * 8)))
      done);
  (Sim.Machine.cycles m, Telemetry.Sink.events_total sink, trace_json sink)

let test_single_step_equivalence () =
  let cycles_on, events_on, trace_on = single_step_sequence ~tlb:true in
  let cycles_off, events_off, trace_off = single_step_sequence ~tlb:false in
  Alcotest.(check int) "cycles identical" cycles_off cycles_on;
  Alcotest.(check int) "events identical" events_off events_on;
  Alcotest.(check bool) "faults actually occurred" true (events_on > 0);
  Alcotest.(check string) "trace bit-identical" trace_off trace_on

(* The width-specialised entries against the generic path.  A TLB-on
   machine takes the fast entries for every in-page access of width 1,
   4, 7 and 8; a TLB-off machine takes [read_le]/[write_le] for all of
   them.  One random program of reads and writes of every width (in-page
   and page-straddling, over MT, MU, read-only and unmapped pages), PKRU
   flips through WRPKRU and by direct store, single-steps set by hand
   (so that hits trap too), run with or without the profiler's fault ->
   single-step -> trap handlers and with or without a sampler or census
   hook, must give both machines the same values,
   faults, cycles, hook timings, event trace and memory. *)

type access_op =
  | Read of int * int (* width, address *)
  | Write of int * int * int (* width, address, value *)
  | Wrpkru of int (* index into [pkru_views] *)
  | Store_pkru of int (* the same, by a direct store: no charge, no event *)
  | Single_step (* set the trap flag: the next access traps after it completes *)
  | Pkey_mprotect of int * int (* page 0-3, key *)
  | Mprotect of int * int (* page 0-3, index into [prots] *)

(* Pages 0-1: key 1 (MT); 2-3: key 2 (MU); 4: unmapped; 5: read-only. *)
let access_pages = 6

let pkru_views =
  [|
    Mpk.Pkru.all_enabled;
    Mpk.Pkru.all_disabled_except [ key 2 ];
    Mpk.Pkru.all_disabled_except [ key 1 ];
    Mpk.Pkru.set_rights Mpk.Pkru.all_enabled (key 1) Mpk.Pkru.Disable_write;
    Mpk.Pkru.all_disabled_except [];
  |]

let prots = [| Vmm.Prot.read_write; { Vmm.Prot.none with read = true }; Vmm.Prot.none |]

let print_access_op = function
  | Read (w, a) -> Printf.sprintf "read%d 0x%x" w a
  | Write (w, a, v) -> Printf.sprintf "write%d 0x%x %d" w a v
  | Wrpkru i -> Printf.sprintf "wrpkru %d" i
  | Store_pkru i -> Printf.sprintf "pkru <- %d" i
  | Single_step -> "single-step"
  | Pkey_mprotect (pg, k) -> Printf.sprintf "pkey_mprotect page %d key %d" pg k
  | Mprotect (pg, i) -> Printf.sprintf "mprotect page %d prot %d" pg i

let gen_access_op =
  let open QCheck.Gen in
  let addr =
    let* pg = int_bound (access_pages - 1) in
    let* offset =
      oneof [ int_bound 15; map (fun d -> page - 1 - d) (int_bound 15); int_bound (page - 1) ]
    in
    return (base + (pg * page) + offset)
  in
  let width = oneofl [ 1; 2; 4; 7; 8 ] in
  let view = int_bound (Array.length pkru_views - 1) in
  frequency
    [
      (6, map2 (fun w a -> Read (w, a)) width addr);
      (6, map3 (fun w a v -> Write (w, a, v)) width addr int);
      (2, map (fun i -> Wrpkru i) view);
      (1, map (fun i -> Store_pkru i) view);
      (1, return Single_step);
      (1, map2 (fun pg k -> Pkey_mprotect (pg, k)) (int_bound 3) (int_bound 2));
      (1, map2 (fun pg i -> Mprotect (pg, i)) (int_bound 3) (int_bound (Array.length prots - 1)));
    ]

(* [profiling], and the hook: 0 none, 1 sampler, 2 census; its period. *)
type access_case = { profiling : bool; hook : int; every : int; ops : access_op list }

let arb_access_case =
  let open QCheck.Gen in
  let gen =
    let* profiling = bool in
    let* hook = int_bound 2 in
    let* every = int_range 1 40 in
    let* ops = list_size (int_range 1 80) gen_access_op in
    return { profiling; hook; every; ops }
  in
  QCheck.make gen ~print:(fun c ->
      Printf.sprintf "profiling=%b hook=%d every=%d\n%s" c.profiling c.hook c.every
        (String.concat "\n" (List.map print_access_op c.ops)))

let run_access_case ~tlb case =
  let m = Sim.Machine.create ~tlb () in
  let pt = m.Sim.Machine.page_table in
  let reserve pg n ~prot ~pkey =
    ok (Vmm.Page_table.reserve pt ~base:(base + (pg * page)) ~size:(n * page) ~prot ~pkey)
  in
  reserve 0 2 ~prot:Vmm.Prot.read_write ~pkey:(key 1);
  reserve 2 2 ~prot:Vmm.Prot.read_write ~pkey:(key 2);
  reserve 5 1 ~prot:{ Vmm.Prot.read = true; write = false; execute = false } ~pkey:(key 0);
  let log = Buffer.create 256 in
  let note fmt = Printf.bprintf log (fmt ^^ "\n") in
  let cpu () = m.Sim.Machine.cpu in
  (* The profiler's view to restore after a single-stepped fault. *)
  let saved = ref None in
  if case.profiling then
    Sim.Signals.register_segv m.Sim.Machine.signals (fun f ->
        match f.Vmm.Fault.kind with
        | Vmm.Fault.Pkey_violation _ ->
          saved := Some (cpu ()).Sim.Cpu.pkru;
          Sim.Cpu.set_pkru (cpu ()) Mpk.Pkru.all_enabled;
          (cpu ()).Sim.Cpu.trap_flag <- true;
          Sim.Signals.Retry
        | _ -> Sim.Signals.Pass);
  Sim.Signals.register_trap m.Sim.Machine.signals (fun () ->
      note "trap at %d" (Sim.Machine.cycles m);
      Option.iter (Sim.Cpu.set_pkru (cpu ())) !saved;
      saved := None);
  let step = function
    | Read (w, a) -> (
      let read =
        match w with
        | 1 -> Sim.Machine.read_u8
        | 2 -> Sim.Machine.read_u16
        | 4 -> Sim.Machine.read_u32
        | 7 -> Sim.Machine.read_u56
        | _ -> Sim.Machine.read_u64
      in
      match read m a with
      | v -> note "read%d 0x%x = %d" w a v
      | exception Vmm.Fault.Unhandled f -> note "read%d: %s" w (Vmm.Fault.to_string f))
    | Write (w, a, v) -> (
      let write =
        match w with
        | 1 -> Sim.Machine.write_u8
        | 2 -> Sim.Machine.write_u16
        | 4 -> Sim.Machine.write_u32
        | 7 -> Sim.Machine.write_u56
        | _ -> Sim.Machine.write_u64
      in
      match write m a v with
      | () -> note "write%d 0x%x" w a
      | exception Vmm.Fault.Unhandled f -> note "write%d: %s" w (Vmm.Fault.to_string f))
    | Wrpkru i -> Sim.Cpu.wrpkru (cpu ()) pkru_views.(i)
    | Store_pkru i -> (cpu ()).Sim.Cpu.pkru <- pkru_views.(i)
    | Single_step -> (cpu ()).Sim.Cpu.trap_flag <- true
    | Pkey_mprotect (pg, k) -> ok (Vmm.Page_table.pkey_mprotect pt ~base:(base + (pg * page)) ~size:page (key k))
    | Mprotect (pg, i) -> ok (Vmm.Page_table.mprotect pt ~base:(base + (pg * page)) ~size:page prots.(i))
  in
  let program () = List.iter step case.ops in
  let hooked () =
    let ctx = m.Sim.Machine.ctx in
    match case.hook with
    | 1 ->
      Telemetry.Ctx.with_sampler ctx
        ~provider:(fun () ->
          note "sample at %d" (Sim.Machine.cycles m);
          [ "access" ])
        (Telemetry.Sampler.create ~every:case.every)
        program
    | 2 ->
      Telemetry.Ctx.with_census ctx
        ~provider:(fun () ->
          note "census at %d" (Sim.Machine.cycles m);
          {
            Telemetry.Census.at_cycle = Sim.Machine.cycles m;
            pools = [];
            sites = [];
            ages = Telemetry.Histogram.create ();
          })
        (Telemetry.Census.create ~every:case.every ())
        program
    | _ -> program ()
  in
  let sink = Telemetry.Sink.create () in
  Telemetry.Ctx.with_sink m.Sim.Machine.ctx sink hooked;
  (cpu ()).Sim.Cpu.pkru <- Mpk.Pkru.all_enabled;
  List.iter
    (fun pg ->
      let a = base + (pg * page) in
      note "page %d: %s" pg (Digest.to_hex (Digest.string (Sim.Machine.priv_read_string m a page))))
    [ 0; 1; 2; 3; 5 ];
  (Buffer.contents log, Sim.Machine.cycles m, trace_json sink)

let prop_fast_entries_match_generic =
  QCheck.Test.make ~count:300 ~name:"fast entries match the generic path" arb_access_case
    (fun case ->
      let log_on, cycles_on, trace_on = run_access_case ~tlb:true case in
      let log_off, cycles_off, trace_off = run_access_case ~tlb:false case in
      if log_on <> log_off then QCheck.Test.fail_reportf "values/faults differ:\n%s\n--\n%s" log_on log_off;
      if cycles_on <> cycles_off then
        QCheck.Test.fail_reportf "cycles %d (tlb) vs %d (no tlb)" cycles_on cycles_off;
      if trace_on <> trace_off then QCheck.Test.fail_reportf "event traces differ";
      true)

(* --- Invalidation edges --- *)

let test_pkey_mprotect_invalidates () =
  let m = machine_with_region ~pkey:(key 0) () in
  Sim.Machine.write_u64 m base 11;
  Alcotest.(check int) "cached read" 11 (Sim.Machine.read_u64 m base);
  (* Retag the page under the cached translation, with a PKRU that denies
     the new key: the next access must miss and fault. *)
  ok (Vmm.Page_table.pkey_mprotect m.Sim.Machine.page_table ~base ~size:page (key 1));
  Sim.Cpu.set_pkru m.Sim.Machine.cpu (Mpk.Pkru.all_disabled_except []);
  match Sim.Machine.read_u64 m base with
  | exception Vmm.Fault.Unhandled { Vmm.Fault.kind = Vmm.Fault.Pkey_violation k; _ } ->
    Alcotest.(check int) "faults on the new key" 1 (Mpk.Pkey.to_int k)
  | _ -> Alcotest.fail "expected a pkey fault after pkey_mprotect"

let test_mprotect_invalidates () =
  let m = machine_with_region ~pkey:(key 0) () in
  Sim.Machine.write_u64 m base 5;
  ok (Vmm.Page_table.mprotect m.Sim.Machine.page_table ~base ~size:page { Vmm.Prot.read = true; write = false; execute = false });
  Alcotest.(check int) "read still fine" 5 (Sim.Machine.read_u64 m base);
  match Sim.Machine.write_u64 m base 6 with
  | exception Vmm.Fault.Unhandled { Vmm.Fault.kind = Vmm.Fault.Prot_violation; _ } -> ()
  | _ -> Alcotest.fail "expected a prot fault after mprotect"

let test_gate_pkru_rewrite_rechecks () =
  (* A call gate's WRPKRU drops the trusted key: the entry cached while
     trusted must not satisfy accesses made inside the gate. *)
  let m = machine_with_region ~pkey:(key 1) () in
  let gate = Runtime.Gate.create m in
  Sim.Machine.write_u64 m base 99;
  Alcotest.(check int) "cached while trusted" 99 (Sim.Machine.read_u64 m base);
  let misses () = (Sim.Machine.tlb_stats m).Sim.Tlb.misses in
  let hits () = (Sim.Machine.tlb_stats m).Sim.Tlb.hits in
  (match
     Runtime.Gate.call_untrusted gate (fun () -> ignore (Sim.Machine.read_u64 m base))
   with
  | exception Vmm.Fault.Unhandled { Vmm.Fault.kind = Vmm.Fault.Pkey_violation k; _ } ->
    Alcotest.(check int) "trusted key denied inside gate" 1 (Mpk.Pkey.to_int k)
  | _ -> Alcotest.fail "gated access to trusted memory should fault");
  (* Back outside the gate the access works again, from the entry cached
     before the gate: the gate's WRPKRUs flushed nothing. *)
  let hits_before = hits () and misses_before = misses () in
  Alcotest.(check int) "restored after gate" 99 (Sim.Machine.read_u64 m base);
  Alcotest.(check int) "restored read is a TLB hit" (hits_before + 1) (hits ());
  Alcotest.(check int) "misses do not move" misses_before (misses ())

(* A WRPKRU that revokes only the write right (WD) of the key of a page
   whose entry is resident: the read still succeeds, the write faults on
   that key.  Values, fault and cycles are simulated behaviour, pinned
   with the TLB on and off. *)
let wd_revocation ~tlb =
  let m = machine_with_region ~tlb ~pkey:(key 1) () in
  let cpu = m.Sim.Machine.cpu in
  Sim.Machine.write_u64 m base 42;
  Alcotest.(check int) "resident entry" 42 (Sim.Machine.read_u64 m base);
  Sim.Cpu.wrpkru cpu (Mpk.Pkru.set_rights Mpk.Pkru.all_enabled (key 1) Mpk.Pkru.Disable_write);
  Alcotest.(check int) "read after WD-only revocation" 42 (Sim.Machine.read_u64 m base);
  (match Sim.Machine.write_u64 m base 43 with
  | exception Vmm.Fault.Unhandled { Vmm.Fault.kind = Vmm.Fault.Pkey_violation k; _ } ->
    Alcotest.(check int) "write faults on the MT key" 1 (Mpk.Pkey.to_int k)
  | () -> Alcotest.fail "expected a pkey fault on a write-disabled key");
  Alcotest.(check int) "value unchanged" 42 (Sim.Machine.read_u64 m base);
  Alcotest.(check int) "cycles pinned" 1038 (Sim.Machine.cycles m)

let test_wd_revocation_on_resident_entry () =
  wd_revocation ~tlb:true;
  wd_revocation ~tlb:false

(* Two harts on one page table with different PKRUs, alternating
   accesses to one MT page: hart 0 may write; hart 1 may only read (WD),
   then not even that (AD).  Each hart's accesses are checked against
   its own PKRU, whatever the other hart's TLB holds. *)
let two_harts ~tlb =
  let m = machine_with_region ~tlb ~pkey:(key 1) () in
  let h0 = m.Sim.Machine.cpu in
  let h1 = Sim.Machine.spawn_cpu m in
  Sim.Cpu.wrpkru h1 (Mpk.Pkru.set_rights Mpk.Pkru.all_enabled (key 1) Mpk.Pkru.Disable_write);
  let log = ref [] in
  let attempt name f =
    let line =
      match f () with
      | v -> Printf.sprintf "%s = %d" name v
      | exception Vmm.Fault.Unhandled f -> Printf.sprintf "%s: %s" name (Vmm.Fault.to_string f)
    in
    log := line :: !log
  in
  for i = 1 to 4 do
    if i = 3 then
      Sim.Cpu.wrpkru h1 (Mpk.Pkru.set_rights Mpk.Pkru.all_enabled (key 1) Mpk.Pkru.Disable_access);
    attempt "h0 write" (fun () ->
        Sim.Machine.write_u64 m base (10 * i);
        10 * i);
    attempt "h0 read" (fun () -> Sim.Machine.read_u64 m base);
    Sim.Machine.run_on m h1 (fun () ->
        attempt "h1 read" (fun () -> Sim.Machine.read_u64 m base);
        attempt "h1 write" (fun () ->
            Sim.Machine.write_u64 m base ((10 * i) + 1);
            (10 * i) + 1))
  done;
  let denied access = Printf.sprintf "fault: SEGV_PKUERR(key=1) on %s at 0x200000" access in
  let round i ~h1_reads =
    let v = string_of_int (10 * i) in
    [
      "h0 write = " ^ v;
      "h0 read = " ^ v;
      (if h1_reads then "h1 read = " ^ v else "h1 read: " ^ denied "read");
      "h1 write: " ^ denied "write";
    ]
  in
  Alcotest.(check (list string)) "values and faults pinned"
    (List.concat_map (fun i -> round i ~h1_reads:(i < 3)) [ 1; 2; 3; 4 ])
    (List.rev !log);
  Alcotest.(check (pair int int)) "per-hart cycles pinned" (316, 4272)
    (Sim.Cpu.cycles h0, Sim.Cpu.cycles h1)

let test_two_harts_different_pkrus () =
  two_harts ~tlb:true;
  two_harts ~tlb:false

let test_direct_pkru_store_invalidates () =
  (* A direct store, not through [Cpu.set_pkru]: the probe checks the
     resident entry's key against the live PKRU, so it must fault. *)
  let m = machine_with_region () in
  Sim.Machine.write_u64 m base 3;
  Alcotest.(check int) "cached" 3 (Sim.Machine.read_u64 m base);
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_disabled_except [];
  match Sim.Machine.read_u64 m base with
  | exception Vmm.Fault.Unhandled { Vmm.Fault.kind = Vmm.Fault.Pkey_violation _; _ } -> ()
  | _ -> Alcotest.fail "expected a fault after a direct pkru store"

let test_trap_fires_after_tlb_hit () =
  let m = machine_with_region ~pkey:(key 0) () in
  Sim.Machine.write_u64 m base 1;
  Alcotest.(check int) "entry warmed" 1 (Sim.Machine.read_u64 m base);
  let fired = ref false in
  Sim.Signals.register_trap m.Sim.Machine.signals (fun () -> fired := true);
  m.Sim.Machine.cpu.Sim.Cpu.trap_flag <- true;
  ignore (Sim.Machine.read_u64 m base);
  Alcotest.(check bool) "trap fired on a TLB-hit access" true !fired;
  Alcotest.(check bool) "hit actually happened" true
    ((Sim.Machine.tlb_stats m).Sim.Tlb.hits > 0)

(* --- Stats and counters --- *)

let test_stats_accumulate_and_off_machine_stays_zero () =
  let m = machine_with_region ~pkey:(key 0) () in
  for _ = 1 to 10 do
    ignore (Sim.Machine.read_u64 m base)
  done;
  let s = Sim.Machine.tlb_stats m in
  Alcotest.(check bool) "hits counted" true (s.Sim.Tlb.hits >= 9);
  Alcotest.(check bool) "first access missed" true (s.Sim.Tlb.misses >= 1);
  Alcotest.(check bool) "hit rate high" true (Sim.Tlb.hit_rate s > 0.8);
  let off = machine_with_region ~tlb:false ~pkey:(key 0) () in
  for _ = 1 to 10 do
    ignore (Sim.Machine.read_u64 off base)
  done;
  Alcotest.(check bool) "tlb-off machine reports zero stats" true
    (Sim.Machine.tlb_stats off = Sim.Tlb.zero_stats);
  Alcotest.(check bool) "tlb flag readable" true
    (m.Sim.Machine.tlb_enabled && not off.Sim.Machine.tlb_enabled)

let test_cycle_accounting_sums_harts () =
  (* Machine.cycles is the sum of the hart clocks: charges and resets on
     any hart (through the machine, the CPU and a checked access) must
     keep it equal to that sum. *)
  let m = machine_with_region ~pkey:(key 0) () in
  let c1 = Sim.Machine.spawn_cpu m in
  Alcotest.(check (list int)) "hart ids, boot first" [ 0; 1 ]
    (List.map (fun c -> c.Sim.Cpu.id) (Sim.Machine.cpus m));
  let hart_sum () = List.fold_left (fun acc c -> acc + Sim.Cpu.cycles c) 0 (Sim.Machine.cpus m) in
  Sim.Machine.charge m 10;
  Sim.Cpu.charge c1 20;
  Sim.Machine.run_on m c1 (fun () ->
      Sim.Machine.write_u64 m base 1;
      ignore (Sim.Machine.read_u64 m base));
  Alcotest.(check int) "total is the hart sum" (hart_sum ()) (Sim.Machine.cycles m);
  Alcotest.(check int) "accesses charged only the hart that ran them" 10
    (Sim.Cpu.cycles m.Sim.Machine.cpu);
  Sim.Cpu.reset_cycles c1;
  Alcotest.(check int) "per-hart counter zeroed" 0 (Sim.Cpu.cycles c1);
  Alcotest.(check int) "reset drops that hart's share" 10 (Sim.Machine.cycles m);
  Sim.Cpu.charge c1 5;
  Alcotest.(check int) "total is the hart sum after a reset" (hart_sum ()) (Sim.Machine.cycles m);
  Alcotest.(check int) "and counts on from zero" 15 (Sim.Machine.cycles m)

(* TLB accounting is host-side, but it is still part of the contract:
   one fixed mpk run per tier must probe, miss and flush exactly as
   pinned.  The gates' WRPKRUs flush nothing, and the timed run changes
   no mapping, so it counts no flush generation.  Every tier takes the
   same checked slot accesses, so the threaded tier probes exactly like
   the AST tier; only its cycle accounting differs. *)
let test_tlb_stats_pinned_per_tier () =
  let bench = ok (Workloads.Registry.bench_of_name "dom-attr") in
  let profile = Workloads.Runner.profile_bench bench in
  let stats tier =
    let browser =
      Workloads.Runner.load ~profile (Pkru_safe.Config.make Pkru_safe.Config.Mpk) bench
    in
    let sink = Telemetry.Sink.create () in
    Workloads.Runner.run_scripts ~trace:sink ~engine_tier:tier browser
      [ bench.Workloads.Bench_def.script ];
    ( Pkru_safe.Env.cycles (Browser.env browser),
      Telemetry.Sink.count sink "tlb_hit",
      Telemetry.Sink.count sink "tlb_miss",
      Telemetry.Sink.count sink "tlb_flush" )
  in
  let pinned = Alcotest.(pair int (pair int (pair int int))) in
  let nest (c, h, m, f) = (c, (h, (m, f))) in
  let ((_, ast_h, ast_m, ast_f) as ast) = stats Engine.Ast_tier in
  Alcotest.check pinned "ast tier: cycles, hits, misses, flushes"
    (nest (182641, 23599, 259, 0))
    (nest ast);
  let thr_c, thr_h, thr_m, thr_f = stats Engine.Threaded_tier in
  Alcotest.(check int) "threaded tier: cycles" 182384 thr_c;
  Alcotest.(check (triple int int int))
    "threaded tier: hits, misses, flushes as on the ast tier" (ast_h, ast_m, ast_f)
    (thr_h, thr_m, thr_f)

let test_prometheus_tlb_families () =
  let sink = Telemetry.Sink.create () in
  let empty = Telemetry.Export.prometheus sink in
  Alcotest.(check bool) "hits family exposed at zero" true
    (contains empty "pkru_tlb_hits_total 0");
  Alcotest.(check bool) "flushes family exposed at zero" true
    (contains empty "pkru_tlb_flushes_total 0");
  Telemetry.Sink.incr sink ~by:5 "tlb_hit";
  Telemetry.Sink.incr sink ~by:2 "tlb_miss";
  Telemetry.Sink.incr sink ~by:1 "tlb_flush";
  let from_counters = Telemetry.Export.prometheus sink in
  Alcotest.(check bool) "hits from sink counters" true
    (contains from_counters "pkru_tlb_hits_total 5");
  Alcotest.(check bool) "misses from sink counters" true
    (contains from_counters "pkru_tlb_misses_total 2")

let test_runner_injects_counters () =
  let bench = Workloads.Bench_def.bench "tlb-cnt" (Workloads.Kernels.richards ~iterations:5) in
  let profile = Runtime.Profile.create () in
  let m =
    Workloads.Runner.run_config ~telemetry:true ~profile
      (Pkru_safe.Config.make Pkru_safe.Config.Base)
      bench
  in
  match m.Workloads.Runner.trace with
  | None -> Alcotest.fail "expected a trace"
  | Some sink ->
    Alcotest.(check bool) "tlb_hit counter injected" true
      (Telemetry.Sink.count sink "tlb_hit" > 0);
    (* The counters ride into the summary JSON (bench --json digests). *)
    Alcotest.(check bool) "summary_json carries tlb counters" true
      (contains (Util.Json.to_string (Telemetry.Export.summary_json sink)) "tlb_hit")

let suite =
  [
    Alcotest.test_case "equivalence: mpk mode" `Quick (check_equivalence Pkru_safe.Config.Mpk);
    Alcotest.test_case "equivalence: profiling mode" `Quick
      (check_equivalence Pkru_safe.Config.Profiling);
    Alcotest.test_case "equivalence: single-step path" `Quick test_single_step_equivalence;
    Alcotest.test_case "pkey_mprotect invalidates" `Quick test_pkey_mprotect_invalidates;
    Alcotest.test_case "mprotect invalidates" `Quick test_mprotect_invalidates;
    Alcotest.test_case "gate pkru rewrite rechecks" `Quick test_gate_pkru_rewrite_rechecks;
    Alcotest.test_case "direct pkru store invalidates" `Quick test_direct_pkru_store_invalidates;
    Alcotest.test_case "wd revocation on a resident entry" `Quick test_wd_revocation_on_resident_entry;
    Alcotest.test_case "two harts with different pkrus" `Quick test_two_harts_different_pkrus;
    Alcotest.test_case "trap after tlb hit" `Quick test_trap_fires_after_tlb_hit;
    Alcotest.test_case "stats + tlb-off zero" `Quick test_stats_accumulate_and_off_machine_stays_zero;
    Alcotest.test_case "cycle accounting sums harts" `Quick test_cycle_accounting_sums_harts;
    Alcotest.test_case "tlb stats pinned per tier" `Quick test_tlb_stats_pinned_per_tier;
    Alcotest.test_case "prometheus tlb families" `Quick test_prometheus_tlb_families;
    Alcotest.test_case "runner injects tlb counters" `Quick test_runner_injects_counters;
    QCheck_alcotest.to_alcotest prop_fast_entries_match_generic;
  ]
