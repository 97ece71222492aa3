(* Host-side timing of layer calls, made from outside the program.

   Every call the benchmark makes into a layer goes through [call]: it
   always adds the call's wall time to a per-name total (cheap, so the
   untraced run keeps these totals too), and while [enabled] is set it
   also records a span (name, start, end, parent span, pass id).  Spans
   are kept in memory and written out by [write] at the end of the run.

   A span's layer is its name up to the first '.', e.g. "core" for
   "core.env_create".  Self time is a span's duration minus the durations
   of its direct children; spans nest strictly (stack discipline), so the
   children never overlap. *)

let now = Unix.gettimeofday

type span = {
  name : string;
  start : float;
  mutable stop : float;
  parent : int; (* index into [spans], -1 at top level *)
  pass : int;
  mutable child_s : float; (* summed durations of direct children *)
}

(* --- GC pauses from the runtime's own event ring (OCaml 5 runtime events) --- *)

let gc_pause_ns = ref 0
let gc_depth = ref 0
let gc_open_ts = ref 0L
let cursor = ref None

let gc_start () =
  Runtime_events.start ();
  let callbacks =
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ ts _ ->
        if !gc_depth = 0 then gc_open_ts := Runtime_events.Timestamp.to_int64 ts;
        incr gc_depth)
      ~runtime_end:(fun _ ts _ ->
        if !gc_depth > 0 then begin
          decr gc_depth;
          if !gc_depth = 0 then
            gc_pause_ns :=
              !gc_pause_ns
              + Int64.to_int (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !gc_open_ts)
        end)
      ()
  in
  cursor := Some (Runtime_events.create_cursor None, callbacks)

(* Drains the event ring.  Traced layer calls poll on every return, so
   the ring cannot wrap between polls. *)
let gc_poll () =
  match !cursor with
  | Some (c, cb) -> ignore (Runtime_events.read_poll c cb None)
  | None -> ()

(* Between passes no runtime phase is open: the mutator is running. *)
let gc_reset () =
  gc_poll ();
  gc_depth := 0;
  gc_pause_ns := 0

let enabled = ref false
let pass_id = ref 0
let spans : span array ref = ref [||]
let nspans = ref 0
let open_stack : int list ref = ref []

type total = { mutable calls : int; mutable secs : float }

let totals : (string, total) Hashtbl.t = Hashtbl.create 32

let total name =
  match Hashtbl.find_opt totals name with
  | Some t -> t
  | None ->
    let t = { calls = 0; secs = 0.0 } in
    Hashtbl.replace totals name t;
    t

let reset_totals () = Hashtbl.reset totals

let push s =
  if !nspans = Array.length !spans then begin
    let grown = Array.make (max 1024 (2 * !nspans)) s in
    Array.blit !spans 0 grown 0 !nspans;
    spans := grown
  end;
  !spans.(!nspans) <- s;
  incr nspans;
  !nspans - 1

let close id stop =
  let s = !spans.(id) in
  s.stop <- stop;
  open_stack := List.tl !open_stack;
  if s.parent >= 0 then begin
    let p = !spans.(s.parent) in
    p.child_s <- p.child_s +. (stop -. s.start)
  end

let call name f =
  let t = total name in
  let t0 = now () in
  let finish () =
    let t1 = now () in
    t.calls <- t.calls + 1;
    t.secs <- t.secs +. (t1 -. t0);
    t1
  in
  if not !enabled then begin
    let v = try f () with e -> ignore (finish ()); raise e in
    ignore (finish ());
    v
  end
  else begin
    let parent = match !open_stack with p :: _ -> p | [] -> -1 in
    let id = push { name; start = t0; stop = t0; parent; pass = !pass_id; child_s = 0.0 } in
    open_stack := id :: !open_stack;
    match f () with
    | v ->
      close id (finish ());
      gc_poll ();
      v
    | exception e ->
      close id (finish ());
      raise e
  end

let secs name = match Hashtbl.find_opt totals name with Some t -> t.secs | None -> 0.0

let mean_us name =
  match Hashtbl.find_opt totals name with
  | Some t when t.calls > 0 -> t.secs *. 1e6 /. float_of_int t.calls
  | _ -> 0.0

let layer_of name =
  match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name

(* Self seconds per layer over the spans of the given passes. *)
let self_times ~passes =
  let acc = Hashtbl.create 16 in
  for i = 0 to !nspans - 1 do
    let s = !spans.(i) in
    if List.mem s.pass passes then begin
      let layer = layer_of s.name in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt acc layer) in
      Hashtbl.replace acc layer (prev +. (s.stop -. s.start -. s.child_s))
    end
  done;
  acc

let write path =
  let oc = open_out path in
  let t0 = if !nspans > 0 then !spans.(0).start else 0.0 in
  output_string oc "[\n";
  for i = 0 to !nspans - 1 do
    let s = !spans.(i) in
    Printf.fprintf oc
      "%s{\"id\":%d,\"name\":%S,\"start_us\":%.1f,\"end_us\":%.1f,\"parent\":%d,\"pass\":%d}\n"
      (if i = 0 then "" else ",")
      i s.name
      ((s.start -. t0) *. 1e6)
      ((s.stop -. t0) *. 1e6)
      s.parent s.pass
  done;
  output_string oc "]\n";
  close_out oc

