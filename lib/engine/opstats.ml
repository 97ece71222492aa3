(* Opcode frequency profiling for the reference bytecode interpreter.

   The superinstruction set of the fast tier (Threaded) is chosen from
   data, not intuition: running a workload with a collector passed to
   [Bytecode.run] counts every executed opcode and every *fall-through
   adjacent* opcode pair (pc = previous pc + 1 within one interpreter
   frame — the pairs a fused closure could actually cover; jump landings
   and cross-frame boundaries are excluded).  `report --opcodes` renders
   the result and EXPERIMENTS.md records the measurements that justify
   the fused set.

   Collection is host-side observability only: the collector is consulted
   by the reference interpreter between ticks and never charges simulated
   cycles, so profiling runs remain bit-identical to unprofiled ones. *)

type t = {
  singles : (string, int ref) Hashtbl.t;
  pairs : (string * string, int ref) Hashtbl.t;
  mutable total : int;
}

let create () = { singles = Hashtbl.create 64; pairs = Hashtbl.create 256; total = 0 }

let bump tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> incr r
  | None -> Hashtbl.replace tbl key (ref 1)

let record t ?prev cur =
  t.total <- t.total + 1;
  bump t.singles cur;
  match prev with
  | Some p -> bump t.pairs (p, cur)
  | None -> ()

let total t = t.total

let sorted_bindings tbl =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) tbl []
  |> List.sort (fun (ka, a) (kb, b) -> if a <> b then compare b a else compare ka kb)

let singles t = sorted_bindings t.singles

let pairs t = sorted_bindings t.pairs

let to_json t =
  Util.Json.Obj
    [
      ("total", Util.Json.Int t.total);
      ( "singles",
        Util.Json.Obj (List.map (fun (k, n) -> (k, Util.Json.Int n)) (singles t)) );
      ( "pairs",
        Util.Json.List
          (List.map
             (fun ((a, b), n) ->
               Util.Json.Obj
                 [ ("first", Util.Json.String a); ("second", Util.Json.String b);
                   ("count", Util.Json.Int n) ])
             (pairs t)) );
    ]

let render t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "instructions executed: %d\n\n" t.total);
  Buffer.add_string buf "per-opcode counts:\n";
  List.iter
    (fun (k, n) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-22s %10d  %5.1f%%\n" k n
           (100.0 *. float_of_int n /. float_of_int (max 1 t.total))))
    (singles t);
  Buffer.add_string buf "\nadjacent fall-through pairs:\n";
  let ps = pairs t in
  let shown = List.filteri (fun i _ -> i < 24) ps in
  List.iter
    (fun ((a, b), n) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-34s %10d  %5.1f%%\n"
           (a ^ ";" ^ b) n
           (100.0 *. float_of_int n /. float_of_int (max 1 t.total))))
    shown;
  if List.length ps > List.length shown then
    Buffer.add_string buf
      (Printf.sprintf "  ... %d more pairs\n" (List.length ps - List.length shown));
  Buffer.contents buf
