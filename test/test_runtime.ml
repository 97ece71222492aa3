(* Tests for the runtime library: AllocIds, metadata table, profiles,
   compartment stack, call gates and the profiler fault handler. *)

let key = Mpk.Pkey.of_int
let site n = Runtime.Alloc_id.synthetic n

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

(* --- Alloc_id --- *)

let test_alloc_id_order_and_json () =
  let a = Runtime.Alloc_id.make ~func_id:1 ~block_id:2 ~call_id:3 in
  let b = Runtime.Alloc_id.make ~func_id:1 ~block_id:2 ~call_id:4 in
  Alcotest.(check bool) "ordered" true (compare a b < 0);
  Alcotest.(check bool) "equal" true
    (( = ) a (Runtime.Alloc_id.of_json (Runtime.Alloc_id.to_json a)));
  Alcotest.(check string) "printed" "alloc<1:2:3>" (Runtime.Alloc_id.to_string a)

(* --- Metadata --- *)

let test_metadata_interior_lookup () =
  let md = Runtime.Metadata.create () in
  Runtime.Metadata.on_alloc md ~addr:1000 ~size:64 ~alloc_id:(site 1);
  Runtime.Metadata.on_alloc md ~addr:2000 ~size:16 ~alloc_id:(site 2);
  (match Runtime.Metadata.lookup md 1063 with
  | Some r -> Alcotest.(check bool) "interior hit" true (( = ) r.Runtime.Metadata.alloc_id (site 1))
  | None -> Alcotest.fail "interior lookup failed");
  Alcotest.(check bool) "one past end misses" true (Runtime.Metadata.lookup md 1064 = None);
  Alcotest.(check bool) "gap misses" true (Runtime.Metadata.lookup md 1500 = None);
  Alcotest.(check bool) "below misses" true (Runtime.Metadata.lookup md 999 = None)

let test_metadata_realloc_keeps_id () =
  let md = Runtime.Metadata.create () in
  Runtime.Metadata.on_alloc md ~addr:1000 ~size:64 ~alloc_id:(site 7);
  Runtime.Metadata.on_realloc md ~old_addr:1000 ~new_addr:4096 ~new_size:128;
  Alcotest.(check bool) "old gone" true (Runtime.Metadata.lookup md 1000 = None);
  (match Runtime.Metadata.lookup md 4200 with
  | Some r ->
    Alcotest.(check bool) "id survives realloc" true
      (( = ) r.Runtime.Metadata.alloc_id (site 7))
  | None -> Alcotest.fail "new range not tracked");
  Runtime.Metadata.on_dealloc md ~addr:4096;
  Alcotest.(check int) "empty" 0 (Runtime.Metadata.live_count md)

(* Random traffic against a naive model: objects of up to three pages,
   in-place and moving reallocs, bases reused after a free, and runs of
   ascending allocations at the frontier as a page build makes them
   (small objects packed on one page, objects ending on a page's last
   byte, and objects crossing into the next page).  Every
   lookup (random probes plus each live object's edges and page
   boundaries) must agree with a scan of the model, and fold must visit
   exactly the model's records in ascending base order. *)
let prop_metadata_matches_model =
  QCheck.Test.make ~count:50 ~name:"metadata lookup matches a naive model"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Util.Rng.create seed in
      let page = Vmm.Layout.page_size in
      let md = Runtime.Metadata.create () in
      let model = Hashtbl.create 32 in (* base -> (size, id) *)
      let freed = ref [] in (* (base, size) slots no live object overlaps *)
      let next_addr = ref (0x1000 + Util.Rng.int rng page) in
      let fresh_size () =
        if Util.Rng.int rng 4 = 0 then 1 + Util.Rng.int rng (3 * page) else 8 + Util.Rng.int rng 100
      in
      (* Room for [size] bytes: a freed slot that fits, else the frontier. *)
      let place size =
        match List.find_opt (fun (_, room) -> room >= size) !freed with
        | Some (base, _) when Util.Rng.bool rng ->
          freed := List.filter (fun (b, _) -> b <> base) !freed;
          base
        | _ ->
          let addr = !next_addr in
          next_addr := addr + size + Util.Rng.int rng 64;
          addr
      in
      let pick () =
        let keys = Hashtbl.fold (fun k _ acc -> k :: acc) model [] in
        List.nth keys (Util.Rng.int rng (List.length keys))
      in
      (* An object from the frontier, tightly packed. *)
      let append id =
        let addr = !next_addr in
        let to_page_end = page - (addr mod page) in
        let size =
          match Util.Rng.int rng 6 with
          | 0 -> to_page_end (* its last byte is the page's last *)
          | 1 -> to_page_end + 1 + Util.Rng.int rng 64 (* crosses into the next page *)
          | _ -> 1 + Util.Rng.int rng 48
        in
        Runtime.Metadata.on_alloc md ~addr ~size ~alloc_id:id;
        Hashtbl.replace model addr (size, id);
        next_addr := addr + size + (8 * Util.Rng.int rng 2)
      in
      for i = 1 to 200 do
        match Util.Rng.int rng 5 with
        | 0 | 1 ->
          let size = fresh_size () in
          let addr = place size in
          Runtime.Metadata.on_alloc md ~addr ~size ~alloc_id:(site i);
          Hashtbl.replace model addr (size, site i)
        | 2 when Hashtbl.length model > 0 ->
          let addr = pick () in
          let size, _ = Hashtbl.find model addr in
          Runtime.Metadata.on_dealloc md ~addr;
          Hashtbl.remove model addr;
          freed := (addr, size) :: !freed
        | 3 when Hashtbl.length model > 0 ->
          let old_addr = pick () in
          let old_size, id = Hashtbl.find model old_addr in
          Hashtbl.remove model old_addr;
          (* Shrink in place, or move (the old block is freed after the
             new one is placed, so the two never overlap). *)
          let new_addr, new_size =
            if Util.Rng.bool rng then (old_addr, 1 + Util.Rng.int rng old_size)
            else begin
              let size = fresh_size () in
              let addr = place size in
              freed := (old_addr, old_size) :: !freed;
              (addr, size)
            end
          in
          Runtime.Metadata.on_realloc md ~old_addr ~new_addr ~new_size;
          Hashtbl.replace model new_addr (new_size, id)
        | 4 ->
          for _ = 1 to 1 + Util.Rng.int rng 12 do
            append (site i)
          done
        | _ -> ()
      done;
      let naive a =
        Hashtbl.fold
          (fun addr (size, id) acc -> if a >= addr && a < addr + size then Some id else acc)
          model None
      in
      let agrees probe =
        let got =
          Option.map (fun r -> r.Runtime.Metadata.alloc_id) (Runtime.Metadata.lookup md probe)
        in
        match (got, naive probe) with
        | None, None -> true
        | Some a, Some b -> ( = ) a b
        | _ -> false
      in
      let edges =
        Hashtbl.fold
          (fun addr (size, _) acc ->
            let boundaries = List.init (size / page + 2) (fun k -> ((addr / page) + k) * page) in
            (addr - 1) :: addr :: (addr + size - 1) :: (addr + size) :: boundaries @ acc)
          model []
      in
      let random = List.init 100 (fun _ -> Util.Rng.int rng !next_addr) in
      let in_order =
        List.sort compare (Hashtbl.fold (fun addr (size, _) acc -> (addr, size) :: acc) model [])
      in
      let folded =
        List.rev
          (Runtime.Metadata.fold
             (fun r acc -> (r.Runtime.Metadata.addr, r.Runtime.Metadata.size) :: acc)
             md [])
      in
      let ids_match =
        Runtime.Metadata.fold
          (fun r ok ->
            ok
            && ( = ) r.Runtime.Metadata.alloc_id
                 (snd (Hashtbl.find model r.Runtime.Metadata.addr)))
          md true
      in
      List.for_all agrees (edges @ random)
      && folded = in_order && ids_match
      && Runtime.Metadata.live_count md = Hashtbl.length model)

(* --- Profile --- *)

let test_profile_record_unique () =
  let p = Runtime.Profile.create () in
  Runtime.Profile.record p (site 1);
  Runtime.Profile.record p (site 1);
  Runtime.Profile.record p (site 2);
  Alcotest.(check int) "unique sites" 2 (Runtime.Profile.cardinal p);
  Alcotest.(check int) "hit count" 2 (Runtime.Profile.hit_count p (site 1))

let test_profile_json_roundtrip () =
  let p = Runtime.Profile.create () in
  Runtime.Profile.record p (Runtime.Alloc_id.make ~func_id:3 ~block_id:1 ~call_id:0);
  Runtime.Profile.record p (site 9);
  Runtime.Profile.record p (site 9);
  (* Through the file format [save] writes and [load] reads. *)
  let path = Filename.temp_file "pkru" ".profile.json" in
  let p' =
    Fun.protect
      ~finally:(fun () -> Sys.remove path)
      (fun () ->
        Runtime.Profile.save p path;
        Runtime.Profile.load path)
  in
  Alcotest.(check int) "cardinal" 2 (Runtime.Profile.cardinal p');
  Alcotest.(check int) "hits preserved" 2 (Runtime.Profile.hit_count p' (site 9))

let test_profile_save_load () =
  let p = Runtime.Profile.create () in
  Runtime.Profile.record p (site 5);
  let path = Filename.temp_file "pkru" ".profile.json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Runtime.Profile.save p path;
      let p' = Runtime.Profile.load path in
      Alcotest.(check bool) "site survives" true (Runtime.Profile.mem p' (site 5)))

let test_profile_merge_and_subset () =
  let a = Runtime.Profile.create () in
  let b = Runtime.Profile.create () in
  Runtime.Profile.record a (site 1);
  Runtime.Profile.record b (site 1);
  Runtime.Profile.record b (site 2);
  let m = Runtime.Profile.merge a b in
  Alcotest.(check int) "merged" 2 (Runtime.Profile.cardinal m);
  Alcotest.(check int) "hits summed" 2 (Runtime.Profile.hit_count m (site 1));
  let rng = Util.Rng.create 3 in
  Alcotest.(check int) "subset 0" 0
    (Runtime.Profile.cardinal (Runtime.Profile.subset m ~fraction:0.0 ~rng));
  Alcotest.(check int) "subset 1" 2
    (Runtime.Profile.cardinal (Runtime.Profile.subset m ~fraction:1.0 ~rng))

(* Random [record] sequences over 1-50 sites against the profile's
   reference semantics, an [Alloc_id.Map] of hit counts whose version
   bumps when a new site joins.  A site is recorded through one shared
   value or through a structurally equal copy, so the last-site cache
   (physical equality) both hits and misses.  After every step:
   cardinal, sites, every hit count and the version; at the end: the
   JSON, a merge with a second profile, and a subset, none of which may
   share counters with its sources. *)
let prop_profile_matches_map_model =
  QCheck.Test.make ~count:100 ~name:"profile matches a Map model"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let module M = Runtime.Alloc_id.Map in
      let rng = Util.Rng.create seed in
      let n = 1 + Util.Rng.int rng 50 in
      let field () = Util.Rng.int rng 4 - 1 in
      let ids =
        Array.init n (fun _ ->
            Runtime.Alloc_id.make ~func_id:(field ()) ~block_id:(field ()) ~call_id:(field ()))
      in
      let copy (id : Runtime.Alloc_id.t) =
        Runtime.Alloc_id.make ~func_id:id.func_id ~block_id:id.block_id ~call_id:id.call_id
      in
      (* The shared value or a structurally equal copy. *)
      let either id = if Util.Rng.bool rng then id else copy id in
      let model_record (m, v) id =
        match M.find_opt id m with
        | Some k -> (M.add id (k + 1) m, v)
        | None -> (M.add id 1 m, v + 1)
      in
      let agrees p (m, v) =
        Runtime.Profile.cardinal p = M.cardinal m
        && Runtime.Profile.sites p = List.map fst (M.bindings m)
        && Runtime.Profile.version p = v
        && Array.for_all
             (fun id ->
               Runtime.Profile.hit_count p id = Option.value (M.find_opt id m) ~default:0
               && Runtime.Profile.mem p id = M.mem id m)
             ids
      in
      let model_json m =
        let site ((id : Runtime.Alloc_id.t), hits) =
          Util.Json.Obj
            [
              ("func", Util.Json.Int id.func_id);
              ("block", Util.Json.Int id.block_id);
              ("call", Util.Json.Int id.call_id);
              ("hits", Util.Json.Int hits);
            ]
        in
        Util.Json.to_string
          (Util.Json.Obj
             [ ("version", Util.Json.Int 1); ("sites", Util.Json.List (List.map site (M.bindings m))) ])
      in
      let json p = Util.Json.to_string (Runtime.Profile.to_json p) in
      (* [steps] records into a fresh profile, two in three repeating the
         previous site as consecutive faults on one object do, checked
         after every step: the profile and its model, or None. *)
      let build steps =
        let p = Runtime.Profile.create () in
        let rec go k prev model =
          if k = 0 then Some (p, model)
          else begin
            let id = either (if Util.Rng.int rng 3 = 0 then ids.(Util.Rng.int rng n) else prev) in
            Runtime.Profile.record p id;
            let model = model_record model id in
            if agrees p model then go (k - 1) id model else None
          end
        in
        go steps ids.(0) (M.empty, 0)
      in
      match (build (1 + Util.Rng.int rng 300), build (Util.Rng.int rng 100)) with
      | Some (p, (m, v)), Some (q, (mq, _)) ->
        let before = json p in
        let merged = Runtime.Profile.merge p q in
        let mm = M.union (fun _ x y -> Some (x + y)) m mq in
        let fraction = Util.Rng.float rng 1.0 and sub_seed = Util.Rng.int rng 1000 in
        let sub = Runtime.Profile.subset p ~fraction ~rng:(Util.Rng.create sub_seed) in
        let sub_rng = Util.Rng.create sub_seed in
        let ms = M.filter (fun _ _ -> Util.Rng.float sub_rng 1.0 < fraction) m in
        let results_agree =
          before = model_json m
          && agrees merged (mm, 0)
          && json merged = model_json mm
          && agrees sub (ms, 0)
          && json sub = model_json ms
        in
        (* Recording into a merge or a subset leaves its sources alone. *)
        Array.iter (Runtime.Profile.record merged) ids;
        Array.iter (Runtime.Profile.record sub) ids;
        results_agree
        && agrees merged (Array.fold_left model_record (mm, 0) ids)
        && agrees sub (Array.fold_left model_record (ms, 0) ids)
        && json p = before && agrees p (m, v)
      | _ -> false)

(* --- Comp_stack --- *)

let test_comp_stack () =
  let s = Runtime.Comp_stack.create () in
  Runtime.Comp_stack.push s Mpk.Pkru.all_enabled;
  Runtime.Comp_stack.push s (Mpk.Pkru.all_disabled_except []);
  Alcotest.(check int) "depth" 2 (Runtime.Comp_stack.depth s);
  ignore (Runtime.Comp_stack.pop s);
  ignore (Runtime.Comp_stack.pop s);
  Alcotest.(check int) "max depth" 2 (Runtime.Comp_stack.max_depth s);
  Alcotest.(check bool) "underflow" true
    (match Runtime.Comp_stack.pop s with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- Compartment views --- *)

let test_compartment_views () =
  let tk = key 1 in
  Alcotest.(check bool) "trusted view reads MT" true (Mpk.Pkru.can_read Runtime.Compartment.trusted_view tk);
  let uv = Runtime.Compartment.untrusted_view in
  Alcotest.(check bool) "untrusted view blocked from MT" false (Mpk.Pkru.can_read uv tk);
  Alcotest.(check bool) "untrusted view reads MU" true (Mpk.Pkru.can_read uv Mpk.Pkey.default);
  Alcotest.(check bool) "classify trusted" true
    (( = ) (Runtime.Compartment.of_pkru Runtime.Compartment.trusted_view) Runtime.Compartment.Trusted);
  Alcotest.(check bool) "classify untrusted" true
    (( = ) (Runtime.Compartment.of_pkru uv) Runtime.Compartment.Untrusted)

(* --- Gate --- *)

let fresh_gate () =
  let m = Sim.Machine.create () in
  (m, Runtime.Gate.create m)

let test_gate_transitions_and_views () =
  let m, g = fresh_gate () in
  Alcotest.(check bool) "starts trusted" true
    (( = ) (Runtime.Gate.current g) Runtime.Compartment.Trusted);
  Runtime.Gate.enter_untrusted g;
  Alcotest.(check bool) "now untrusted" true
    (( = ) (Runtime.Gate.current g) Runtime.Compartment.Untrusted);
  Runtime.Gate.exit_untrusted g;
  Alcotest.(check bool) "restored" true
    (Mpk.Pkru.equal m.Sim.Machine.cpu.Sim.Cpu.pkru Mpk.Pkru.all_enabled);
  Alcotest.(check int) "two transitions" 2 (Runtime.Gate.transitions g)

let test_gate_nested_callback () =
  let _, g = fresh_gate () in
  let observed = ref [] in
  let note () = observed := Runtime.Gate.current g :: !observed in
  Runtime.Gate.call_untrusted g (fun () ->
      note ();
      Runtime.Gate.callback_trusted g (fun () ->
          note ();
          (* A nested FFI call from inside the callback. *)
          Runtime.Gate.call_untrusted g note);
      note ());
  Alcotest.(check bool) "final state trusted" true
    (( = ) (Runtime.Gate.current g) Runtime.Compartment.Trusted);
  Alcotest.(check (list string)) "compartment sequence"
    [ "untrusted"; "trusted"; "untrusted"; "untrusted" ]
    (List.rev_map Runtime.Compartment.to_string !observed);
  Alcotest.(check int) "max nesting" 3 (Runtime.Comp_stack.max_depth (Runtime.Gate.stack g));
  Alcotest.(check int) "transitions" 6 (Runtime.Gate.transitions g)

let test_gate_restores_on_exception () =
  let _, g = fresh_gate () in
  (try Runtime.Gate.call_untrusted g (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "restored after raise" true
    (( = ) (Runtime.Gate.current g) Runtime.Compartment.Trusted);
  Alcotest.(check int) "stack empty" 0 (Runtime.Comp_stack.depth (Runtime.Gate.stack g))

let test_gate_unbalanced_exit () =
  let _, g = fresh_gate () in
  Alcotest.(check bool) "unbalanced exit rejected" true
    (match Runtime.Gate.exit_untrusted g with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_gate_charges_cycles () =
  let m, g = fresh_gate () in
  let c0 = Sim.Machine.cycles m in
  Runtime.Gate.call_untrusted g (fun () -> ());
  let per_round_trip = Sim.Machine.cycles m - c0 in
  let expected =
    2 * (Sim.Cost.default.Sim.Cost.gate_bookkeeping + Sim.Cost.default.Sim.Cost.wrpkru
       + Sim.Cost.default.Sim.Cost.rdpkru)
  in
  Alcotest.(check int) "gate cost" expected per_round_trip

(* --- Profiler: the Figure-2 loop against real machine memory --- *)

let profiling_setup () =
  let m = Sim.Machine.create () in
  let pk = ok (Allocators.Pkalloc.create m) in
  let profiler = Runtime.Profiler.create m in
  Runtime.Profiler.install profiler;
  let gate = Runtime.Gate.create m in
  (m, pk, profiler, gate)

let test_profiler_records_and_single_steps () =
  let m, pk, profiler, gate = profiling_setup () in
  let addr = Option.get (Allocators.Pkalloc.alloc_trusted pk 64) in
  Runtime.Profiler.log_alloc profiler ~alloc_id:(site 11) ~addr ~size:64;
  Sim.Machine.write_u64 m addr 4242;
  let seen = ref 0 in
  Runtime.Gate.call_untrusted gate (fun () ->
      (* U reads a trusted object: fault, record, single-step, resume. *)
      seen := Sim.Machine.read_u64 m addr);
  Alcotest.(check int) "data read through the fault" 4242 !seen;
  Alcotest.(check bool) "site recorded" true
    (Runtime.Profile.mem (Runtime.Profiler.profile profiler) (site 11));
  Alcotest.(check int) "one fault serviced" 1 (Runtime.Profiler.faults_serviced profiler);
  (* The restricted view was restored after the single step: a second,
     different object faults again rather than inheriting open access. *)
  let addr2 = Option.get (Allocators.Pkalloc.alloc_trusted pk 64) in
  Runtime.Profiler.log_alloc profiler ~alloc_id:(site 12) ~addr:addr2 ~size:64;
  Runtime.Gate.call_untrusted gate (fun () -> ignore (Sim.Machine.read_u64 m addr2));
  Alcotest.(check int) "second fault serviced separately" 2
    (Runtime.Profiler.faults_serviced profiler);
  Alcotest.(check int) "two unique sites" 2
    (Runtime.Profile.cardinal (Runtime.Profiler.profile profiler))

let test_profiler_dedups_repeated_site () =
  let m, pk, profiler, gate = profiling_setup () in
  let addr = Option.get (Allocators.Pkalloc.alloc_trusted pk 256) in
  Runtime.Profiler.log_alloc profiler ~alloc_id:(site 1) ~addr ~size:256;
  Runtime.Gate.call_untrusted gate (fun () ->
      for i = 0 to 30 do
        ignore (Sim.Machine.read_u8 m (addr + i))
      done);
  Alcotest.(check int) "every access faulted" 31 (Runtime.Profiler.faults_serviced profiler);
  Alcotest.(check int) "but one unique site" 1
    (Runtime.Profile.cardinal (Runtime.Profiler.profile profiler));
  Alcotest.(check int) "hit count kept" 31
    (Runtime.Profile.hit_count (Runtime.Profiler.profile profiler) (site 1))

let test_profiler_untracked_fault () =
  let m, _pk, profiler, gate = profiling_setup () in
  (* Trusted, pkey-tagged memory that is not a tracked heap object: the
     secret page.  Profiling must not crash, and must not record a site. *)
  let secret = Vmm.Layout.secret_addr in
  Sim.Machine.priv_write_u64 m secret 42;
  Runtime.Gate.call_untrusted gate (fun () -> ignore (Sim.Machine.read_u64 m secret));
  Alcotest.(check int) "untracked fault" 1 (Runtime.Profiler.untracked_faults profiler);
  Alcotest.(check int) "profile empty" 0
    (Runtime.Profile.cardinal (Runtime.Profiler.profile profiler))

let test_profiler_chains_to_app_handler () =
  let m, _pk, profiler, gate = profiling_setup () in
  ignore profiler;
  (* An application handler registered before the profiler must still see
     non-MPK faults (here: an unmapped address). *)
  let app_handler_hits = ref 0 in
  (* Note: profiling_setup installed the profiler already, so this handler
     is *later* in the chain and would shadow it; register the app handler
     on a fresh machine ordering instead. *)
  let m2 = Sim.Machine.create () in
  let pk2 = ok (Allocators.Pkalloc.create m2) in
  ignore pk2;
  Sim.Signals.register_segv m2.Sim.Machine.signals (fun f ->
      match f.Vmm.Fault.kind with
      | Vmm.Fault.Not_mapped ->
        incr app_handler_hits;
        Sim.Signals.Kill "app handler: mapped nothing"
      | _ -> Sim.Signals.Pass);
  let profiler2 = Runtime.Profiler.create m2 in
  Runtime.Profiler.install profiler2;
  (match Sim.Machine.read_u8 m2 0x555000 with
  | exception Sim.Signals.Process_killed _ -> ()
  | _ -> Alcotest.fail "expected app handler to fire");
  Alcotest.(check int) "app handler saw the fault" 1 !app_handler_hits;
  ignore (m, gate)

(* A fault resolved by a handler registered after the profiler (so: ahead
   of it in the chain) must never reach the profiler at all — its
   untracked-fault counter stays at zero. *)
let test_profiler_not_charged_for_shadowed_fault () =
  let m, _pk, profiler, gate = profiling_setup () in
  let secret = Vmm.Layout.secret_addr in
  Sim.Machine.priv_write_u64 m secret 42;
  Sim.Signals.register_segv m.Sim.Machine.signals (fun f ->
      match f.Vmm.Fault.kind with
      | Vmm.Fault.Pkey_violation _ ->
        (* Resolve by opening the compartment for the retried access. *)
        Sim.Cpu.set_pkru m.Sim.Machine.cpu Mpk.Pkru.all_enabled;
        Sim.Signals.Retry
      | _ -> Sim.Signals.Pass);
  Runtime.Gate.call_untrusted gate (fun () -> ignore (Sim.Machine.read_u64 m secret));
  Alcotest.(check int) "profiler never saw the fault" 0
    (Runtime.Profiler.untracked_faults profiler);
  Alcotest.(check int) "nothing recorded" 0
    (Runtime.Profile.cardinal (Runtime.Profiler.profile profiler))

(* --- Mitigator: enforcement-mode fault recovery --- *)

let mitigator_setup ?budget policy =
  let m = Sim.Machine.create () in
  let pk = ok (Allocators.Pkalloc.create m) in
  let mit = Runtime.Mitigator.create ?budget ~policy ~pkalloc:pk m in
  Runtime.Mitigator.install mit;
  let gate = Runtime.Gate.create m in
  (m, pk, mit, gate)

(* An MT object whose site is "unprofiled": in enforcement mode a U access
   faults, and the mitigator adjudicates. *)
let tracked_mt_object ?(id = 77) ?(size = 64) pk mit =
  let addr = Option.get (Allocators.Pkalloc.alloc_trusted pk size) in
  Runtime.Mitigator.log_alloc mit ~alloc_id:(site id) ~addr ~size;
  addr

let test_mitigator_emulate_spends_budget () =
  let m, pk, mit, gate = mitigator_setup ~budget:2 Runtime.Mitigator.Emulate in
  let addr = tracked_mt_object pk mit in
  Sim.Machine.write_u64 m addr 4242;
  (* Two incidents fit the budget and are emulated transparently. *)
  Runtime.Gate.call_untrusted gate (fun () ->
      Alcotest.(check int) "first emulated" 4242 (Sim.Machine.read_u64 m addr);
      Alcotest.(check int) "second emulated" 4242 (Sim.Machine.read_u64 m addr));
  Alcotest.(check int) "tokens spent" 0 (Runtime.Mitigator.tokens_left mit);
  (* The third incident escalates to Abort behaviour: unresolved fault. *)
  (match Runtime.Gate.call_untrusted gate (fun () -> ignore (Sim.Machine.read_u64 m addr)) with
  | exception Vmm.Fault.Unhandled { Vmm.Fault.kind = Vmm.Fault.Pkey_violation _; _ } -> ()
  | _ -> Alcotest.fail "expected escalation once the budget is spent");
  Alcotest.(check (list (pair string int))) "outcome counts"
    [ ("emulated", 2); ("escalated", 1) ]
    (Runtime.Mitigator.outcome_counts mit);
  Alcotest.(check int) "three incidents" 3 (Runtime.Mitigator.incidents mit);
  Alcotest.(check int) "gate balanced after escalation" 0
    (Runtime.Comp_stack.depth (Runtime.Gate.stack gate))

let test_mitigator_promote_quarantines_site () =
  let m, pk, mit, gate = mitigator_setup Runtime.Mitigator.Promote in
  let addr = tracked_mt_object ~id:91 pk mit in
  Sim.Machine.write_u64 m addr 13;
  Runtime.Gate.call_untrusted gate (fun () ->
      Alcotest.(check int) "access emulated" 13 (Sim.Machine.read_u64 m addr));
  let printed = Runtime.Alloc_id.to_string (site 91) in
  Alcotest.(check (list string)) "site quarantined" [ printed ]
    (Runtime.Mitigator.promoted_sites mit);
  Alcotest.(check bool) "pkalloc override table sees it" true
    (Allocators.Pkalloc.site_quarantined pk printed);
  Alcotest.(check (list (pair string int))) "outcome" [ ("promoted", 1) ]
    (Runtime.Mitigator.outcome_counts mit)

let test_mitigator_degrade_fails_gracefully () =
  let m, pk, mit, gate = mitigator_setup Runtime.Mitigator.Degrade in
  let addr = tracked_mt_object pk mit in
  Sim.Machine.write_u64 m addr 1;
  (match Runtime.Gate.call_untrusted gate (fun () -> ignore (Sim.Machine.read_u64 m addr)) with
  | exception Runtime.Mitigator.Degraded _ -> ()
  | _ -> Alcotest.fail "expected Degraded");
  Alcotest.(check int) "gate restored by the unwind" 0
    (Runtime.Comp_stack.depth (Runtime.Gate.stack gate));
  Alcotest.(check bool) "back in trusted view" true
    (( = ) (Runtime.Gate.current gate) Runtime.Compartment.Trusted);
  Alcotest.(check (list (pair string int))) "outcome" [ ("degraded", 1) ]
    (Runtime.Mitigator.outcome_counts mit)

let test_mitigator_refuses_untracked_address () =
  (* The secret page resolves in no metadata table: leniency must not
     extend to it — the fault stays unresolved whatever the policy. *)
  let m, _pk, mit, gate = mitigator_setup Runtime.Mitigator.Emulate in
  let secret = Vmm.Layout.secret_addr in
  Sim.Machine.priv_write_u64 m secret 42;
  (match Runtime.Gate.call_untrusted gate (fun () -> ignore (Sim.Machine.read_u64 m secret)) with
  | exception Vmm.Fault.Unhandled { Vmm.Fault.kind = Vmm.Fault.Pkey_violation _; _ } -> ()
  | _ -> Alcotest.fail "expected the untracked fault to stay unresolved");
  Alcotest.(check (list (pair string int))) "refused, not emulated" [ ("refused", 1) ]
    (Runtime.Mitigator.outcome_counts mit);
  Alcotest.(check int) "budget untouched" 65536 (Runtime.Mitigator.tokens_left mit)

let test_mitigator_abort_does_nothing () =
  let m, pk, mit, gate = mitigator_setup Runtime.Mitigator.Abort in
  let addr = tracked_mt_object pk mit in
  Sim.Machine.write_u64 m addr 9;
  (match Runtime.Gate.call_untrusted gate (fun () -> ignore (Sim.Machine.read_u64 m addr)) with
  | exception Vmm.Fault.Unhandled { Vmm.Fault.kind = Vmm.Fault.Pkey_violation _; _ } -> ()
  | _ -> Alcotest.fail "expected the fault to propagate under Abort");
  Alcotest.(check int) "no incidents accounted" 0 (Runtime.Mitigator.incidents mit);
  Alcotest.(check (list (pair string int))) "no outcomes" []
    (Runtime.Mitigator.outcome_counts mit)

let test_mitigator_counts_into_telemetry () =
  let m, pk, mit, gate = mitigator_setup Runtime.Mitigator.Emulate in
  let addr = tracked_mt_object pk mit in
  Sim.Machine.write_u64 m addr 3;
  let sink = Telemetry.Sink.create () in
  Telemetry.Ctx.with_sink m.Sim.Machine.ctx sink (fun () ->
      Runtime.Gate.call_untrusted gate (fun () -> ignore (Sim.Machine.read_u64 m addr)));
  Alcotest.(check int) "sink counter mirrors the incident" 1
    (Telemetry.Sink.count sink "mitigation.emulate.emulated")

let suite =
  [
    Alcotest.test_case "alloc_id order + json" `Quick test_alloc_id_order_and_json;
    Alcotest.test_case "metadata interior lookup" `Quick test_metadata_interior_lookup;
    Alcotest.test_case "metadata realloc keeps id" `Quick test_metadata_realloc_keeps_id;
    QCheck_alcotest.to_alcotest prop_metadata_matches_model;
    Alcotest.test_case "profile unique sites" `Quick test_profile_record_unique;
    Alcotest.test_case "profile json round-trip" `Quick test_profile_json_roundtrip;
    Alcotest.test_case "profile save/load" `Quick test_profile_save_load;
    Alcotest.test_case "profile merge + subset" `Quick test_profile_merge_and_subset;
    QCheck_alcotest.to_alcotest prop_profile_matches_map_model;
    Alcotest.test_case "comp stack" `Quick test_comp_stack;
    Alcotest.test_case "compartment views" `Quick test_compartment_views;
    Alcotest.test_case "gate transitions + views" `Quick test_gate_transitions_and_views;
    Alcotest.test_case "gate nested callback" `Quick test_gate_nested_callback;
    Alcotest.test_case "gate restores on exception" `Quick test_gate_restores_on_exception;
    Alcotest.test_case "gate unbalanced exit" `Quick test_gate_unbalanced_exit;
    Alcotest.test_case "gate cycle cost" `Quick test_gate_charges_cycles;
    Alcotest.test_case "profiler records + single-steps" `Quick test_profiler_records_and_single_steps;
    Alcotest.test_case "profiler dedups sites" `Quick test_profiler_dedups_repeated_site;
    Alcotest.test_case "profiler untracked fault" `Quick test_profiler_untracked_fault;
    Alcotest.test_case "profiler chains to app handler" `Quick test_profiler_chains_to_app_handler;
    Alcotest.test_case "profiler not charged for shadowed fault" `Quick
      test_profiler_not_charged_for_shadowed_fault;
    Alcotest.test_case "mitigator emulate + budget" `Quick test_mitigator_emulate_spends_budget;
    Alcotest.test_case "mitigator promote quarantines" `Quick
      test_mitigator_promote_quarantines_site;
    Alcotest.test_case "mitigator degrade graceful" `Quick test_mitigator_degrade_fails_gracefully;
    Alcotest.test_case "mitigator refuses untracked" `Quick
      test_mitigator_refuses_untracked_address;
    Alcotest.test_case "mitigator abort inert" `Quick test_mitigator_abort_does_nothing;
    Alcotest.test_case "mitigator telemetry counters" `Quick test_mitigator_counts_into_telemetry;
  ]
