(* The black-box flight recorder.

   Attached to a machine's context (Ctx) for a run, it turns the sink's
   bounded rings (recent events, closed + open spans, the last-N gate
   transitions) plus a caller-provided context snapshot (PKRU per hart,
   gate depth, suspect allocation metadata) into a self-contained JSON
   post-mortem at the moment of death: gate-verify kills, unrecovered
   SEGVs, mitigator degradation, chaos invariant failures.  Dumps are kept in memory
   (bounded) and optionally written to a file for the `doctor` CLI.

   Nothing here runs unless [Ctx.dump] is called, and it is only called
   on failure paths — the recorder costs nothing on the happy path and
   never charges simulated cycles. *)

let schema_version = "pkru-safe.flight/1"

type t = {
  mutable sink : Sink.t option; (* explicit attachment; else the machine's sink at dump time *)
  mutable context : (unit -> Util.Json.t) option;
  mutable dumps : Util.Json.t list; (* newest first, at most [max_dumps] *)
  mutable dump_total : int;
  path : string option;
}

let max_dumps = 8

let create ?path () = { sink = None; context = None; dumps = []; dump_total = 0; path }

let attach_sink t sink = t.sink <- Some sink
let set_context t provider = t.context <- Some provider

let dumps t = List.rev t.dumps
let last t = match t.dumps with [] -> None | d :: _ -> Some d
let dump_total t = t.dump_total

(* Last-events window kept in a dump: enough to read the death's
   neighbourhood without shipping the whole 64k ring. *)
let tail n list =
  let len = List.length list in
  if len <= n then list else List.filteri (fun i _ -> i >= len - n) list

let dump_json ?sink t ~reason ~details =
  let open Util.Json in
  let sink = match t.sink with Some s -> Some s | None -> sink in
  let sink_fields =
    match sink with
    | None -> [ ("telemetry", Null) ]
    | Some sink ->
      let spans = Sink.spans sink in
      [
        ( "telemetry",
          Obj
            [
              ("events_total", Int (Sink.events_total sink));
              ("events_dropped", Int (Sink.dropped sink));
              ("gate_transitions", Int (Sink.gate_transitions sink));
              ("counters", Obj (List.map (fun (k, n) -> (k, Int n)) (Sink.counters sink)));
            ] );
        ("events", List (List.map Event.record_to_json (tail 512 (Sink.events sink))));
        ("gate_tail", List (List.map Event.record_to_json (Sink.gate_tail sink)));
        ( "spans",
          Obj
            [
              ("digest", Span.digest_json spans);
              ("closed", List (List.map Span.record_to_json (tail 256 (Span.closed spans))));
              ("open", List (List.map Span.record_to_json (Span.open_spans spans)));
            ] );
      ]
  in
  let context =
    match t.context with
    | None -> Null
    | Some provider -> ( try provider () with _ -> String "context provider raised")
  in
  Obj
    ([
       ("schema", String schema_version);
       ("reason", String reason);
       ("details", Obj details);
       ("context", context);
     ]
    @ sink_fields)

let write_path t json =
  match t.path with
  | None -> ()
  | Some path -> (
    try Out_channel.with_open_text path (fun oc -> output_string oc (Util.Json.to_string_pretty json ^ "\n"))
    with Sys_error _ -> () (* a failing disk must not mask the original failure *))

let record ?sink t ~reason ~details =
  let json = dump_json ?sink t ~reason ~details in
  t.dump_total <- t.dump_total + 1;
  t.dumps <- json :: (if List.length t.dumps >= max_dumps then tail (max_dumps - 1) (List.rev t.dumps) |> List.rev else t.dumps);
  write_path t json;
  json

(* --- doctor: render a dump into a human-readable incident report --- *)

let get ?(default = Util.Json.Null) key json =
  match Util.Json.member key json with v -> v | exception Not_found -> default

let opt_int json =
  match json with
  | Util.Json.Null -> None
  | v -> ( try Some (Util.Json.to_int v) with Invalid_argument _ -> None)

let span_line buf (r : Span.record) ~depth_of =
  let indent = String.make (2 * depth_of r.Span.id) ' ' in
  Buffer.add_string buf
    (Printf.sprintf "  %10d  cpu%-2d %s%s [%s] %s\n" r.Span.t_begin r.Span.cpu indent
       r.Span.name
       (Span.kind_to_string r.Span.kind)
       (if Span.is_open r then "OPEN at death"
        else Printf.sprintf "%d cycles" (Span.duration r)))

let render json =
  let open Util.Json in
  let buf = Buffer.create 4096 in
  let reason = match get "reason" json with String s -> s | _ -> "unknown" in
  Buffer.add_string buf (Printf.sprintf "=== Flight-recorder incident report ===\n");
  Buffer.add_string buf
    (Printf.sprintf "schema: %s\nreason: %s\n"
       (match get "schema" json with String s -> s | _ -> "?")
       reason);
  (match get "details" json with
  | Obj [] | Null -> ()
  | Obj fields ->
    List.iter (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "  %s: %s\n" k (to_string v))) fields
  | _ -> ());
  (* Context: PKRU per hart, gate depth, suspect allocation. *)
  (match get "context" json with
  | Obj _ as ctx ->
    (match opt_int (get "cycles" ctx) with
    | Some c -> Buffer.add_string buf (Printf.sprintf "cycles at dump: %d\n" c)
    | None -> ());
    (match get "cpus" ctx with
    | List cpus ->
      List.iter
        (fun cpu ->
          match (opt_int (get "id" cpu), opt_int (get "pkru" cpu)) with
          | Some id, Some pkru ->
            Buffer.add_string buf (Printf.sprintf "cpu%d PKRU = 0x%08x\n" id pkru)
          | _ -> ())
        cpus
    | _ -> ());
    (match opt_int (get "gate_depth" ctx) with
    | Some 0 -> Buffer.add_string buf "gate stack: balanced (depth 0)\n"
    | Some d ->
      Buffer.add_string buf
        (Printf.sprintf "gate stack: IMBALANCED — depth %d at death (died inside a compartment)\n" d)
    | None -> ());
    (match get "last_fault" ctx with
    | Obj _ as f ->
      Buffer.add_string buf
        (Printf.sprintf "last fault: %s at 0x%x\n"
           (match get "kind" f with String s -> s | _ -> "?")
           (Option.value ~default:0 (opt_int (get "addr" f))))
    | _ -> ());
    (match get "suspect_alloc" ctx with
    | Obj _ as a ->
      Buffer.add_string buf
        (Printf.sprintf "suspect allocation: %s (base 0x%x, %d bytes)\n"
           (match get "alloc_id" a with String s -> s | _ -> "?")
           (Option.value ~default:0 (opt_int (get "base" a)))
           (Option.value ~default:0 (opt_int (get "size" a))))
    | _ -> ());
    (* Heap census at death: the last snapshot a live census took. *)
    (match get "census" ctx with
    | Obj _ as census ->
      Buffer.add_string buf
        (Printf.sprintf "heap census (snapshot at cycle %d):\n"
           (Option.value ~default:0 (opt_int (get "at_cycle" census))));
      (match get "pools" census with
      | Obj pools ->
        List.iter
          (fun (pool, stats) ->
            Buffer.add_string buf
              (Printf.sprintf
                 "  %-3s %d live bytes in %d objects, %d pages in use (peak %d), frag %.2f\n"
                 pool
                 (Option.value ~default:0 (opt_int (get "live_bytes" stats)))
                 (Option.value ~default:0 (opt_int (get "live_objects" stats)))
                 (Option.value ~default:0 (opt_int (get "pages_in_use" stats)))
                 (Option.value ~default:0 (opt_int (get "high_water_pages" stats)))
                 (match get "fragmentation" stats with
                 | Float f -> f
                 | Int i -> float_of_int i
                 | _ -> 0.0)))
          pools
      | _ -> ());
      (match get "sites" census with
      | List (_ :: _ as sites) ->
        Buffer.add_string buf (Printf.sprintf "  %d live site(s); hottest:\n" (List.length sites));
        let by_bytes =
          List.sort
            (fun a b ->
              compare
                (Option.value ~default:0 (opt_int (get "live_bytes" b)))
                (Option.value ~default:0 (opt_int (get "live_bytes" a))))
            sites
        in
        List.iteri
          (fun i site ->
            if i < 5 then
              Buffer.add_string buf
                (Printf.sprintf "    %s [%s] %d bytes / %d objects\n"
                   (match get "site" site with String s -> s | _ -> "?")
                   (match get "pool" site with String s -> s | _ -> "?")
                   (Option.value ~default:0 (opt_int (get "live_bytes" site)))
                   (Option.value ~default:0 (opt_int (get "live_objects" site)))))
          by_bytes
      | _ -> ())
    | _ -> ())
  | _ -> ());
  (* Gate tail: the recent crossing history and its enter/exit balance. *)
  (match get "gate_tail" json with
  | List tail when tail <> [] ->
    let enters =
      List.length (List.filter (fun e -> get "kind" e = String "gate_enter") tail)
    in
    let exits = List.length tail - enters in
    Buffer.add_string buf
      (Printf.sprintf "\nlast %d gate transitions (%d enter / %d exit%s):\n" (List.length tail)
         enters exits
         (if enters = exits then "" else " — IMBALANCED TAIL"));
    List.iter
      (fun e ->
        Buffer.add_string buf
          (Printf.sprintf "  %10d  cpu%-2d %-10s -> %s\n"
             (Option.value ~default:0 (opt_int (get "ts" e)))
             (Option.value ~default:0 (opt_int (get "cpu" e)))
             (match get "kind" e with String s -> s | _ -> "?")
             (match get "target" e with String s -> s | _ -> "?")))
      (tail |> fun l -> if List.length l > 12 then List.filteri (fun i _ -> i >= List.length l - 12) l else l)
  | _ -> ());
  (* Span timeline: closed spans then the open chain, indented by
     parent depth so the causal nesting is visible. *)
  (match get "spans" json with
  | Obj _ as spans -> (
    let records field =
      match get field spans with
      | List l -> List.map Span.record_of_json l
      | _ -> []
    in
    let closed = records "closed" and opened = records "open" in
    let all = closed @ opened in
    let parents = List.map (fun r -> (r.Span.id, r.Span.parent)) all in
    let rec depth id n =
      if n > 32 then n
      else
        match List.assoc_opt id parents with
        | Some 0 | None -> n
        | Some p -> depth p (n + 1)
    in
    let depth_of id = depth id 0 in
    match all with
    | [] -> ()
    | _ ->
      Buffer.add_string buf "\nspan timeline (cycle, hart, causal nesting):\n";
      List.iter (fun r -> span_line buf r ~depth_of)
        (List.sort (fun a b -> compare (a.Span.t_begin, a.Span.id) (b.Span.t_begin, b.Span.id))
           (tail 40 all));
      (match opened with
      | [] -> ()
      | _ ->
        Buffer.add_string buf "\ncausal chain open at death (root -> leaf):\n";
        List.iter
          (fun r ->
            Buffer.add_string buf
              (Printf.sprintf "  #%d %s (%s), opened at cycle %d on cpu%d\n" r.Span.id r.Span.name
                 (Span.kind_to_string r.Span.kind) r.Span.t_begin r.Span.cpu))
          (List.sort (fun a b -> compare a.Span.id b.Span.id) opened)))
  | _ -> ());
  (* Event neighbourhood: the last few raw events before death. *)
  (match get "events" json with
  | List events when events <> [] ->
    let last = if List.length events > 10 then List.filteri (fun i _ -> i >= List.length events - 10) events else events in
    Buffer.add_string buf (Printf.sprintf "\nlast %d events:\n" (List.length last));
    List.iter
      (fun e ->
        Buffer.add_string buf
          (Printf.sprintf "  %10d  cpu%-2d %s\n"
             (Option.value ~default:0 (opt_int (get "ts" e)))
             (Option.value ~default:0 (opt_int (get "cpu" e)))
             (match get "kind" e with String s -> s | _ -> "?")))
      last
  | _ -> ());
  Buffer.contents buf
