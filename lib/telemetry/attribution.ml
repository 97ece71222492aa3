(* The analysis tier over a sink's event trace: fold the events into
   per-allocation-site heat (who allocates, how much is live, which sites
   take MPK faults) and a compartment flow matrix (crossings per direction,
   cycles spent per compartment).  This is pure post-processing — it runs
   after the measured execution, over the trace window the ring kept. *)

let unattributed = "(unattributed)"

type site = {
  site : string; (* AllocId label, or {!unattributed} *)
  mutable allocs : int;
  mutable frees : int;
  mutable bytes_allocated : int;
  mutable live_bytes : int;
  mutable peak_live_bytes : int;
  mutable mt_bytes : int; (* bytes served from the trusted pool *)
  mutable mu_bytes : int; (* bytes served from the shared pool *)
  mutable mpk_faults : int; (* faults landing inside a live allocation of this site *)
}

type flow = {
  mutable t_to_u : int; (* gate entries into U *)
  mutable u_to_t : int; (* reverse-gate entries into T (callbacks) *)
  mutable crossings : int; (* every gate side *)
  mutable max_nesting : int; (* deepest gate nesting seen in the trace *)
  mutable cycles_trusted : int;
  mutable cycles_untrusted : int;
  mutable allocs_mt : int;
  mutable allocs_mu : int;
  mutable mpk_faults : int;
}

type t = {
  sites : (string, site) Hashtbl.t;
  flow : flow;
  mutable unmatched_frees : int; (* frees whose alloc fell outside the trace window *)
  mutable total_cycles : int;
  events_folded : int;
  events_dropped : int;
}

let fresh_site key =
  {
    site = key;
    allocs = 0;
    frees = 0;
    bytes_allocated = 0;
    live_bytes = 0;
    peak_live_bytes = 0;
    mt_bytes = 0;
    mu_bytes = 0;
    mpk_faults = 0;
  }

let find_site t key =
  match Hashtbl.find_opt t.sites key with
  | Some s -> s
  | None ->
    let s = fresh_site key in
    Hashtbl.add t.sites key s;
    s

(* Attribute an address to the live allocation containing it: exact base
   match first, interval scan otherwise (faults are rare; the scan never
   runs on the allocation path). *)
let containing live addr =
  match Hashtbl.find_opt live addr with
  | Some (key, size) -> Some (key, addr, size)
  | None ->
    Hashtbl.fold
      (fun base (key, size) acc ->
        match acc with
        | Some _ -> acc
        | None -> if base <= addr && addr < base + size then Some (key, base, size) else None)
      live None

let of_sink ?total_cycles sink =
  let events = Sink.events sink in
  let t =
    {
      sites = Hashtbl.create 64;
      flow =
        {
          t_to_u = 0;
          u_to_t = 0;
          crossings = 0;
          max_nesting = 0;
          cycles_trusted = 0;
          cycles_untrusted = 0;
          allocs_mt = 0;
          allocs_mu = 0;
          mpk_faults = 0;
        };
      unmatched_frees = 0;
      total_cycles = 0;
      events_folded = List.length events;
      events_dropped = Sink.dropped sink;
    }
  in
  let live : (int, string * int) Hashtbl.t = Hashtbl.create 256 in
  (* Compartment-cycle accounting: execution starts in T; each gate event
     closes the interval since the previous event and charges it to the
     compartment that was running. *)
  let current = ref Event.Trusted in
  let stack = ref [] in
  let last_ts = ref 0 in
  let charge_until ts =
    let elapsed = max 0 (ts - !last_ts) in
    (match !current with
    | Event.Trusted -> t.flow.cycles_trusted <- t.flow.cycles_trusted + elapsed
    | Event.Untrusted -> t.flow.cycles_untrusted <- t.flow.cycles_untrusted + elapsed);
    last_ts := max !last_ts ts
  in
  List.iter
    (fun (r : Event.record) ->
      match r.Event.event with
      | Event.Gate_enter { target } ->
        charge_until r.Event.ts;
        t.flow.crossings <- t.flow.crossings + 1;
        (match target with
        | Event.Untrusted -> t.flow.t_to_u <- t.flow.t_to_u + 1
        | Event.Trusted -> t.flow.u_to_t <- t.flow.u_to_t + 1);
        stack := !current :: !stack;
        if List.length !stack > t.flow.max_nesting then t.flow.max_nesting <- List.length !stack;
        current := target
      | Event.Gate_exit { target } ->
        charge_until r.Event.ts;
        t.flow.crossings <- t.flow.crossings + 1;
        (match !stack with
        | previous :: rest ->
          stack := rest;
          current := previous
        | [] ->
          (* The matching enter was evicted from the ring; the exit still
             tells us which compartment we were leaving. *)
          current :=
            (match target with Event.Untrusted -> Event.Trusted | Event.Trusted -> Event.Untrusted))
      | Event.Alloc { compartment; site; addr; size } ->
        let key = Option.value site ~default:unattributed in
        let s = find_site t key in
        s.allocs <- s.allocs + 1;
        s.bytes_allocated <- s.bytes_allocated + size;
        s.live_bytes <- s.live_bytes + size;
        if s.live_bytes > s.peak_live_bytes then s.peak_live_bytes <- s.live_bytes;
        (match compartment with
        | Event.Trusted ->
          s.mt_bytes <- s.mt_bytes + size;
          t.flow.allocs_mt <- t.flow.allocs_mt + 1
        | Event.Untrusted ->
          s.mu_bytes <- s.mu_bytes + size;
          t.flow.allocs_mu <- t.flow.allocs_mu + 1);
        Hashtbl.replace live addr (key, size)
      | Event.Free { addr; _ } -> (
        match Hashtbl.find_opt live addr with
        | Some (key, size) ->
          Hashtbl.remove live addr;
          let s = find_site t key in
          s.frees <- s.frees + 1;
          s.live_bytes <- s.live_bytes - size
        | None -> t.unmatched_frees <- t.unmatched_frees + 1)
      | Event.Mpk_fault { addr; _ } -> (
        t.flow.mpk_faults <- t.flow.mpk_faults + 1;
        match containing live addr with
        | Some (key, _, _) ->
          let s = find_site t key in
          s.mpk_faults <- s.mpk_faults + 1
        | None -> ())
      | Event.Wrpkru _ | Event.Signal_dispatch _ | Event.Page_fault _ | Event.Thread_switch _ ->
        ())
    events;
  (* Close the final interval: up to the caller-supplied run length when
     known, otherwise to the last event seen. *)
  (match total_cycles with
  | Some total -> charge_until total
  | None -> ());
  t.total_cycles <- t.flow.cycles_trusted + t.flow.cycles_untrusted;
  t

let flow t = t.flow
let unmatched_frees t = t.unmatched_frees
let total_cycles t = t.total_cycles

let sites t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.sites []
  |> List.sort (fun a b ->
         match compare b.bytes_allocated a.bytes_allocated with
         | 0 -> compare a.site b.site
         | c -> c)

let site_stats t key = Hashtbl.find_opt t.sites key

let pool_of_site s =
  match (s.mt_bytes > 0, s.mu_bytes > 0) with
  | true, false -> "MT"
  | false, true -> "MU"
  | true, true -> "MT+MU"
  | false, false -> "-"

let compartment_cycle_share t =
  let total = t.flow.cycles_trusted + t.flow.cycles_untrusted in
  if total = 0 then (0.0, 0.0)
  else
    ( float_of_int t.flow.cycles_trusted /. float_of_int total,
      float_of_int t.flow.cycles_untrusted /. float_of_int total )

(* --- JSON --- *)

let site_json s =
  let open Util.Json in
  Obj
    [
      ("site", String s.site);
      ("pool", String (pool_of_site s));
      ("allocs", Int s.allocs);
      ("frees", Int s.frees);
      ("bytes_allocated", Int s.bytes_allocated);
      ("live_bytes", Int s.live_bytes);
      ("peak_live_bytes", Int s.peak_live_bytes);
      ("mt_bytes", Int s.mt_bytes);
      ("mu_bytes", Int s.mu_bytes);
      ("mpk_faults", Int s.mpk_faults);
    ]

let site_heat_json ?limit t =
  let all = sites t in
  let kept = match limit with Some n -> List.filteri (fun i _ -> i < n) all | None -> all in
  Util.Json.Obj
    [
      ("sites_total", Util.Json.Int (List.length all));
      ("sites", Util.Json.List (List.map site_json kept));
    ]

let flow_json t =
  let open Util.Json in
  let trusted_share, untrusted_share = compartment_cycle_share t in
  Obj
    [
      ("t_to_u", Int t.flow.t_to_u);
      ("u_to_t", Int t.flow.u_to_t);
      ("gate_crossings", Int t.flow.crossings);
      ("max_nesting", Int t.flow.max_nesting);
      ("cycles_trusted", Int t.flow.cycles_trusted);
      ("cycles_untrusted", Int t.flow.cycles_untrusted);
      ("cycle_share_trusted", Float trusted_share);
      ("cycle_share_untrusted", Float untrusted_share);
      ("allocs_mt", Int t.flow.allocs_mt);
      ("allocs_mu", Int t.flow.allocs_mu);
      ("mpk_faults", Int t.flow.mpk_faults);
    ]

let to_json t =
  Util.Json.Obj
    [
      ("site_heat", site_heat_json t);
      ("flow_matrix", flow_json t);
      ("events_folded", Util.Json.Int t.events_folded);
      ("events_dropped", Util.Json.Int t.events_dropped);
      ("unmatched_frees", Util.Json.Int t.unmatched_frees);
    ]

(* --- Tables --- *)

let site_table t =
  Util.Table.render
    ~header:[ "site"; "pool"; "allocs"; "frees"; "bytes"; "live"; "peak"; "faults" ]
    (List.map
       (fun s ->
         [
           s.site;
           pool_of_site s;
           string_of_int s.allocs;
           string_of_int s.frees;
           string_of_int s.bytes_allocated;
           string_of_int s.live_bytes;
           string_of_int s.peak_live_bytes;
           string_of_int s.mpk_faults;
         ])
       (sites t))

let flow_table t =
  let trusted_share, untrusted_share = compartment_cycle_share t in
  Util.Table.render
    ~header:[ "flow"; "value" ]
    [
      [ "T->U crossings"; string_of_int t.flow.t_to_u ];
      [ "U->T crossings"; string_of_int t.flow.u_to_t ];
      [ "gate crossings"; string_of_int t.flow.crossings ];
      [ "max gate nesting"; string_of_int t.flow.max_nesting ];
      [ "cycles in T"; Printf.sprintf "%d (%.1f%%)" t.flow.cycles_trusted (100.0 *. trusted_share) ];
      [
        "cycles in U";
        Printf.sprintf "%d (%.1f%%)" t.flow.cycles_untrusted (100.0 *. untrusted_share);
      ];
      [ "allocs to MT"; string_of_int t.flow.allocs_mt ];
      [ "allocs to MU"; string_of_int t.flow.allocs_mu ];
      [ "MPK faults"; string_of_int t.flow.mpk_faults ];
    ]

let report t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Compartment flow matrix";
  if t.events_dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf " (over trace window; %d events dropped)" t.events_dropped);
  Buffer.add_string buf ":\n";
  Buffer.add_string buf (flow_table t);
  Buffer.add_char buf '\n';
  let nsites = Hashtbl.length t.sites in
  if nsites > 0 then begin
    Buffer.add_string buf (Printf.sprintf "Allocation-site heat (%d sites):\n" nsites);
    Buffer.add_string buf (site_table t)
  end;
  Buffer.contents buf
