(* Cycle pins: eight small probe workloads, each run under one
   configuration (mode, mitigation, census period, engine tier) with its
   simulated cycles and gate transitions pinned exactly.  The simulator
   is deterministic, so any difference is a behaviour change.  To
   re-pin, edit the number in the table and say why in CHANGES.md, as
   for the goldens in test_ast_tier.ml.

   The probes span gate-bound DOM traffic, DOM construction, a compute
   kernel where gates are rare and an engine-heavy benchmark.  The
   twins pin three mechanisms' architectural invisibility: the
   mitigator and the heap census leave dom-attr's cycles untouched, and
   the threaded bytecode tier retires exactly the reference tier's. *)

type probe = {
  name : string;
  bench : Workloads.Bench_def.bench;
  mode : Pkru_safe.Config.mode;
  mitigation : Runtime.Mitigator.policy option;
  census_every : int option;
  tier : Engine.tier;
  cycles : int;
  transitions : int;
}

let probe ?mitigation ?census_every ?(tier = Engine.Ast_tier) name bench mode ~cycles
    ~transitions =
  { name; bench; mode; mitigation; census_every; tier; cycles; transitions }

let bench name script =
  Workloads.Bench_def.bench ~page:(Workloads.Dom_scripts.page ~rows:6) name script

let dom_attr name = bench name (Workloads.Dom_scripts.dom_attr ~iters:40)
let richards name = bench name (Workloads.Kernels.richards ~iterations:12)

let probes =
  let open Pkru_safe.Config in
  [
    probe "dom-attr:mpk" (dom_attr "dom-attr") Mpk ~cycles:31097 ~transitions:164;
    probe "dom-create:mpk"
      (bench "dom-create" (Workloads.Dom_scripts.dom_create ~iters:24))
      Mpk ~cycles:26983 ~transitions:158;
    probe "fft:base" (bench "fft" (Workloads.Kernels.fft ~n:64)) Base ~cycles:93882
      ~transitions:0;
    probe "richards:mpk" (richards "richards") Mpk ~cycles:10160 ~transitions:2;
    probe "dom-attr:mpk:emulate" ~mitigation:Runtime.Mitigator.Emulate
      (dom_attr "dom-attr-mitigated") Mpk ~cycles:31097 ~transitions:164;
    probe "dom-attr:mpk:census" ~census_every:64 (dom_attr "dom-attr-censused") Mpk
      ~cycles:31097 ~transitions:164;
    probe "richards:bc-ref" ~tier:Engine.Bytecode_tier (richards "richards-bc-ref") Mpk
      ~cycles:10114 ~transitions:2;
    probe "richards:bc-threaded" ~tier:Engine.Threaded_tier (richards "richards-bc-threaded")
      Mpk ~cycles:10114 ~transitions:2;
  ]

let twins =
  [
    ("dom-attr:mpk", "dom-attr:mpk:emulate");
    ("dom-attr:mpk", "dom-attr:mpk:census");
    ("richards:bc-ref", "richards:bc-threaded");
  ]

(* Profiles the probe's bench on the AST tier, then measures it on a
   fresh machine: (cycles, transitions). *)
let run p =
  let profile = Workloads.Runner.profile_bench p.bench in
  let m =
    Workloads.Runner.run_config ?mitigation:p.mitigation ?census_every:p.census_every
      ~engine_tier:p.tier ~mode:p.mode ~profile p.bench
  in
  (m.Workloads.Runner.cycles, m.Workloads.Runner.transitions)

let measured = lazy (List.map (fun p -> (p.name, run p)) probes)

let test_pin p () =
  let cycles, transitions = List.assoc p.name (Lazy.force measured) in
  Alcotest.(check int) (p.name ^ " cycles") p.cycles cycles;
  Alcotest.(check int) (p.name ^ " transitions") p.transitions transitions

let test_twins () =
  let measured = Lazy.force measured in
  List.iter
    (fun (a, b) ->
      Alcotest.(check (pair int int)) (a ^ " = " ^ b) (List.assoc a measured)
        (List.assoc b measured))
    twins

let test_replay () =
  List.iter2
    (fun p (_, first) -> Alcotest.(check (pair int int)) (p.name ^ " replays") first (run p))
    probes (Lazy.force measured)

let suite =
  List.map (fun p -> Alcotest.test_case p.name `Quick (test_pin p)) probes
  @ [
      Alcotest.test_case "twins are cycle-equal" `Quick test_twins;
      Alcotest.test_case "probes are deterministic" `Quick test_replay;
    ]
