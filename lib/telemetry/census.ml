(* The continuous heap census.  The machine's charge path ticks the
   installed census with every batch of retired cycles; each time a whole
   census period elapses, the census asks the registered provider for a
   snapshot of allocator state — per-pool live bytes / objects /
   fragmentation plus per-AllocId live bytes and a log2 object-age
   histogram — and stores it in a bounded ring.

   The telemetry library cannot see the allocators, so snapshots are
   generic records built by the provider (the runtime environment, which
   owns pkalloc and the live-object table).  Like the sink and the
   sampler, the census charges no simulated cycles and the disabled path
   is one load and one branch, so censused and uncensused runs retire
   bit-identical cycle counts and event traces. *)

type pool_stats = {
  cp_pool : string; (* "mt" | "mu" *)
  cp_live_bytes : int;
  cp_live_objects : int;
  cp_allocs : int;
  cp_frees : int;
  cp_bytes_allocated : int;
  cp_bytes_freed : int;
  cp_peak_live_bytes : int;
  cp_pages_in_use : int;
  cp_high_water_pages : int;
  cp_fragmentation : float; (* 1 - live/(pages_in_use * page_size); 0 when empty *)
}

type site_stats = {
  cs_site : string; (* printed AllocId *)
  cs_pool : string; (* "mt" | "mu" *)
  cs_live_bytes : int;
  cs_live_objects : int;
}

type snapshot = {
  at_cycle : int;
  pools : pool_stats list;
  sites : site_stats list; (* sorted by (site, pool) for stable output *)
  ages : Histogram.t; (* log2 histogram of live-object ages, in cycles *)
}

type t = {
  every : int; (* census period in simulated cycles *)
  mutable credit : int; (* cycles accumulated toward the next snapshot *)
  mutable taken : int; (* snapshots taken, total *)
  mutable snapshots : snapshot list; (* newest first, at most [keep] *)
  mutable provider : (unit -> snapshot) option;
      (* walks pkalloc / pool / live-object state.  Set by the runtime
         layer that owns the allocators; must not charge simulated cycles
         (pure OCaml reads only). *)
}

let keep = 64

let create ~every () =
  if every <= 0 then invalid_arg "Census.create: every must be positive";
  { every; credit = 0; taken = 0; snapshots = []; provider = None }

let every t = t.every
let taken_total t = t.taken
let snapshots t = List.rev t.snapshots
let latest t = match t.snapshots with [] -> None | s :: _ -> Some s
let set_provider t f = t.provider <- Some f

let truncate n list =
  let len = List.length list in
  if len <= n then list else List.filteri (fun i _ -> i < n) list

let record t snap =
  t.taken <- t.taken + 1;
  t.snapshots <- truncate keep (snap :: t.snapshots)

let tick t ~sink ~cpu n =
  t.credit <- t.credit + n;
  if t.credit >= t.every then begin
    (* A single large charge may span several periods; the allocator
       state is the same for all of them, so one snapshot is taken and
       the leftover credit keeps the cadence aligned. *)
    t.credit <- t.credit mod t.every;
    match t.provider with
    | None -> ()
    | Some f ->
      let snap = f () in
      record t snap;
      (match sink with
      | None -> ()
      | Some sink -> Sink.span_instant sink ~ts:snap.at_cycle ~cpu ~kind:Span.Census "census")
  end

(* --- JSON --- *)

let pool_stats_json p =
  let open Util.Json in
  Obj
    [
      ("live_bytes", Int p.cp_live_bytes);
      ("live_objects", Int p.cp_live_objects);
      ("allocs", Int p.cp_allocs);
      ("frees", Int p.cp_frees);
      ("bytes_allocated", Int p.cp_bytes_allocated);
      ("bytes_freed", Int p.cp_bytes_freed);
      ("peak_live_bytes", Int p.cp_peak_live_bytes);
      ("pages_in_use", Int p.cp_pages_in_use);
      ("high_water_pages", Int p.cp_high_water_pages);
      ("fragmentation", Float p.cp_fragmentation);
    ]

let site_stats_json s =
  let open Util.Json in
  Obj
    [
      ("site", String s.cs_site);
      ("pool", String s.cs_pool);
      ("live_bytes", Int s.cs_live_bytes);
      ("live_objects", Int s.cs_live_objects);
    ]

let snapshot_json snap =
  let open Util.Json in
  Obj
    [
      ("at_cycle", Int snap.at_cycle);
      ("pools", Obj (List.map (fun p -> (p.cp_pool, pool_stats_json p)) snap.pools));
      ("sites", List (List.map site_stats_json snap.sites));
      ("object_age_cycles", Histogram.to_json snap.ages);
    ]

let digest_json t =
  let open Util.Json in
  Obj
    [
      ("census_every_cycles", Int t.every);
      ("snapshots_total", Int t.taken);
      ("snapshots_kept", Int (List.length t.snapshots));
      ("latest", (match latest t with None -> Null | Some s -> snapshot_json s));
    ]
