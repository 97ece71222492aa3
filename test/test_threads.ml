(* Tests for multi-threaded compartmentalization: per-hart PKRU, per-thread
   compartment stacks, and the profiler's per-thread single-step state —
   the "multi-threaded mixed-language environments" claim of the paper. *)

let site = Runtime.Alloc_id.synthetic

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let env ?profile mode = ok (Pkru_safe.Env.create ?profile (Pkru_safe.Config.make mode))

(* Runs [f] as [thread], switching threads the way the fleet scheduler
   does around each slice. *)
let on_thread e thread f =
  let previous = Pkru_safe.Env.activate_thread e thread in
  Fun.protect ~finally:(fun () -> ignore (Pkru_safe.Env.activate_thread e previous)) f

let test_harts_have_independent_pkru () =
  let m = Sim.Machine.create () in
  let worker = Sim.Machine.spawn_cpu m in
  Alcotest.(check int) "ids distinct" 1 worker.Sim.Cpu.id;
  (* Restrict the boot hart; the worker still has the kernel default. *)
  m.Sim.Machine.cpu.Sim.Cpu.pkru <- Mpk.Pkru.all_disabled_except [];
  Sim.Machine.run_on m worker (fun () ->
      Alcotest.(check bool) "worker unrestricted" true
        (Mpk.Pkru.equal m.Sim.Machine.cpu.Sim.Cpu.pkru Mpk.Pkru.all_enabled));
  Alcotest.(check bool) "boot hart still restricted" false
    (Mpk.Pkru.equal m.Sim.Machine.cpu.Sim.Cpu.pkru Mpk.Pkru.all_enabled)

let test_run_on_restores_on_exception () =
  let m = Sim.Machine.create () in
  let boot = m.Sim.Machine.cpu in
  let worker = Sim.Machine.spawn_cpu m in
  (try Sim.Machine.run_on m worker (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "current hart restored" true (m.Sim.Machine.cpu == boot)

let test_cycles_sum_over_harts () =
  let m = Sim.Machine.create () in
  let worker = Sim.Machine.spawn_cpu m in
  Sim.Machine.charge m 10;
  Sim.Machine.run_on m worker (fun () -> Sim.Machine.charge m 32);
  Alcotest.(check int) "total" 42 (Sim.Machine.cycles m)

let test_interleaved_compartment_stacks () =
  (* Thread A parks inside the untrusted compartment while thread B does a
     complete round trip; A's stack and PKRU are untouched. *)
  let e = env ~profile:(Runtime.Profile.create ()) Pkru_safe.Config.Mpk in
  let m = Pkru_safe.Env.machine e in
  let thread_b = Pkru_safe.Env.spawn_thread e in
  let gate_a = Pkru_safe.Env.gate e in
  Runtime.Gate.enter_untrusted gate_a;
  Alcotest.(check string) "A is untrusted" "untrusted"
    (Runtime.Compartment.to_string (Runtime.Gate.current gate_a));
  on_thread e thread_b (fun () ->
      let gate_b = Pkru_safe.Env.gate e in
      Alcotest.(check bool) "B has its own gate" true (not (gate_b == gate_a));
      Alcotest.(check string) "B starts trusted" "trusted"
        (Runtime.Compartment.to_string (Runtime.Gate.current gate_b));
      Runtime.Gate.call_untrusted gate_b (fun () ->
          Alcotest.(check string) "B gated" "untrusted"
            (Runtime.Compartment.to_string (Runtime.Gate.current gate_b)));
      Alcotest.(check int) "B's stack drained" 0 (Runtime.Comp_stack.depth (Runtime.Gate.stack gate_b)));
  (* Back on A: still parked in U with one stack entry. *)
  Alcotest.(check string) "A still untrusted" "untrusted"
    (Runtime.Compartment.to_string (Runtime.Gate.current gate_a));
  Alcotest.(check int) "A's stack intact" 1 (Runtime.Comp_stack.depth (Runtime.Gate.stack gate_a));
  Runtime.Gate.exit_untrusted gate_a;
  Alcotest.(check int) "four transitions total" 4 (Pkru_safe.Env.transitions e);
  ignore m

let test_enforcement_is_per_thread () =
  (* A trusted object is inaccessible to a thread running in U even while
     another thread (in T) is using it. *)
  let e = env ~profile:(Runtime.Profile.create ()) Pkru_safe.Config.Mpk in
  let m = Pkru_safe.Env.machine e in
  let addr = Pkru_safe.Env.alloc e ~site:(site 1) 64 in
  Sim.Machine.write_u64 m addr 7;
  let worker = Pkru_safe.Env.spawn_thread e in
  on_thread e worker (fun () ->
      Pkru_safe.Env.ffi_call e (fun () ->
          match Sim.Machine.read_u64 m addr with
          | exception Vmm.Fault.Unhandled { Vmm.Fault.kind = Vmm.Fault.Pkey_violation _; _ } -> ()
          | _ -> Alcotest.fail "worker in U must not read MT"));
  (* Main thread (T view) reads it concurrently without issue. *)
  Alcotest.(check int) "main thread reads" 7 (Sim.Machine.read_u64 m addr)

let test_profiler_single_steps_per_thread () =
  (* Two threads fault on different objects; each single-step restores its
     own thread's restricted view and both sites are recorded. *)
  let e = env Pkru_safe.Config.Profiling in
  let m = Pkru_safe.Env.machine e in
  let obj_a = Pkru_safe.Env.alloc e ~site:(site 1) 64 in
  let obj_b = Pkru_safe.Env.alloc e ~site:(site 2) 64 in
  Sim.Machine.write_u64 m obj_a 1;
  Sim.Machine.write_u64 m obj_b 2;
  let worker = Pkru_safe.Env.spawn_thread e in
  (* Main thread enters U and faults on obj_a... *)
  let gate_main = Pkru_safe.Env.gate e in
  Runtime.Gate.enter_untrusted gate_main;
  ignore (Sim.Machine.read_u64 m obj_a);
  (* ...then, still inside U on the main thread, the worker faults too. *)
  on_thread e worker (fun () ->
      Pkru_safe.Env.ffi_call e (fun () -> ignore (Sim.Machine.read_u64 m obj_b)));
  (* Main thread's restricted view survived the worker's single step. *)
  Alcotest.(check string) "main still untrusted" "untrusted"
    (Runtime.Compartment.to_string (Runtime.Gate.current gate_main));
  Runtime.Gate.exit_untrusted gate_main;
  let profile = Pkru_safe.Env.recorded_profile e in
  Alcotest.(check bool) "site 1 recorded" true (Runtime.Profile.mem profile (site 1));
  Alcotest.(check bool) "site 2 recorded" true (Runtime.Profile.mem profile (site 2))

let test_two_browsers_two_threads () =
  (* Full-stack sanity: two script engines driven from two threads of the
     same enforced process, interleaved. *)
  let prof_env = env Pkru_safe.Config.Profiling in
  let pb = Browser.create prof_env in
  Browser.load_page pb {|<div data="x">t</div>|};
  ignore (Browser.exec_script pb
            {|var d = domQueryTag("div")[0]; domGetAttribute(d, "data").charCodeAt(0);|});
  let profile = Pkru_safe.Env.recorded_profile prof_env in
  let e = env ~profile Pkru_safe.Config.Mpk in
  let browser = Browser.create e in
  Browser.load_page browser {|<div data="x">t</div>|};
  let worker = Pkru_safe.Env.spawn_thread e in
  ignore (Browser.exec_script browser
            {|var d = domQueryTag("div")[0]; print(domGetAttribute(d, "data"));|});
  on_thread e worker (fun () ->
      ignore (Browser.exec_script browser {|print(1 + 1);|}));
  Alcotest.(check (list string)) "both outputs" [ "x"; "2" ] (Browser.console browser)

let suite =
  [
    Alcotest.test_case "independent pkru per hart" `Quick test_harts_have_independent_pkru;
    Alcotest.test_case "run_on restores" `Quick test_run_on_restores_on_exception;
    Alcotest.test_case "cycles sum over harts" `Quick test_cycles_sum_over_harts;
    Alcotest.test_case "interleaved compartment stacks" `Quick test_interleaved_compartment_stacks;
    Alcotest.test_case "enforcement per thread" `Quick test_enforcement_is_per_thread;
    Alcotest.test_case "profiler single-steps per thread" `Quick test_profiler_single_steps_per_thread;
    Alcotest.test_case "two browsers two threads" `Quick test_two_browsers_two_threads;
  ]
