type t = {
  ring : Event.record Ring.t;
  counters : (string, int ref) Hashtbl.t;
  histograms : (string, Histogram.t) Hashtbl.t;
  mutable events_total : int;
  spans : Span.t;
  record_spans : bool;
  gate_tail : Event.record Ring.t;
}

let default_capacity = 65536
let default_gate_tail = 256

let create ?(capacity = default_capacity) ?(record_spans = true) ?(gate_tail = default_gate_tail)
    () =
  {
    ring = Ring.create ~capacity;
    counters = Hashtbl.create 32;
    histograms = Hashtbl.create 16;
    events_total = 0;
    spans = Span.create ();
    record_spans;
    gate_tail = Ring.create ~capacity:gate_tail;
  }

let incr ?(by = 1) t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.add t.counters name (ref by)

let emit t ~ts ~cpu event =
  t.events_total <- t.events_total + 1;
  incr t (Event.kind event);
  (* The eviction the ring is about to perform becomes a visible counter,
     so digests report how much of the trace was lost rather than
     silently truncating. *)
  if Ring.length t.ring = Ring.capacity t.ring then incr t "trace.dropped";
  let record = { Event.ts; cpu; event } in
  Ring.push t.ring record;
  (* Gate transitions additionally feed a dedicated short tail: the
     flight recorder's last-N crossings survive even when the main ring
     is churning with allocation events. *)
  if Event.is_gate_transition event then Ring.push t.gate_tail record

let observe t name value =
  let h =
    match Hashtbl.find_opt t.histograms name with
    | Some h -> h
    | None ->
      let h = Histogram.create () in
      Hashtbl.add t.histograms name h;
      h
  in
  Histogram.observe h value

let count t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> !r
  | None -> 0

let events_total t = t.events_total
let events t = Ring.to_list t.ring
let dropped t = Ring.dropped t.ring

let counters t =
  Hashtbl.fold (fun name r acc -> (name, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let histograms t =
  Hashtbl.fold (fun name h acc -> (name, h) :: acc) t.histograms []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let gate_transitions t = count t "gate_enter" + count t "gate_exit"

let gate_tail t = Ring.to_list t.gate_tail

(* {2 Spans} *)

let spans t = t.spans

let span_enter t ~ts ~cpu ~kind name =
  if t.record_spans then Span.enter t.spans ~ts ~cpu ~kind name else 0

let span_exit t ~ts ~cpu ?id () =
  if t.record_spans then
    Span.exit t.spans ~ts ~cpu ?id:(match id with Some 0 -> None | _ -> id) ()

let span_instant t ~ts ~cpu ~kind name =
  if t.record_spans then ignore (Span.instant t.spans ~ts ~cpu ~kind name)
