(* Hierarchical causal spans.  A span covers a cycle interval on one hart
   and links to the span that was open on that hart when it began, so a
   fault can be walked back through the exact chain of transitions that
   led to it: workload phase -> gate crossing -> nested callback -> ...

   The store is bounded like the event ring: closed spans land in a ring
   (oldest evicted first), open spans live on per-hart stacks until their
   end is recorded.  Nothing here charges simulated cycles — recording
   only reads timestamps the caller already holds. *)

type kind =
  | Gate
  | Incident
  | Chaos
  | Phase
  | Census

let kind_to_string = function
  | Gate -> "gate"
  | Incident -> "incident"
  | Chaos -> "chaos"
  | Phase -> "phase"
  | Census -> "census"

let kind_of_string = function
  | "gate" -> Some Gate
  | "incident" -> Some Incident
  | "chaos" -> Some Chaos
  | "phase" -> Some Phase
  | "census" -> Some Census
  | _ -> None

type record = {
  id : int;             (* 1-based, unique within the store *)
  parent : int;         (* 0 = root (no enclosing span on this hart) *)
  name : string;
  kind : kind;
  cpu : int;
  t_begin : int;
  mutable t_end : int;  (* -1 while the span is still open *)
}

let is_open r = r.t_end < 0
let duration r = if is_open r then 0 else r.t_end - r.t_begin

type t = {
  closed : record Ring.t;
  stacks : (int, record list ref) Hashtbl.t; (* cpu -> open spans, innermost first *)
  mutable next_id : int;
  mutable opened_total : int;
}

let capacity = 8192

let create () =
  { closed = Ring.create ~capacity; stacks = Hashtbl.create 4; next_id = 1; opened_total = 0 }

let stack t cpu =
  match Hashtbl.find_opt t.stacks cpu with
  | Some s -> s
  | None ->
    let s = ref [] in
    Hashtbl.add t.stacks cpu s;
    s

let top_id stack = match !stack with [] -> 0 | r :: _ -> r.id

let enter t ~ts ~cpu ~kind name =
  let s = stack t cpu in
  let r =
    { id = t.next_id; parent = top_id s; name; kind; cpu; t_begin = ts; t_end = -1 }
  in
  t.next_id <- t.next_id + 1;
  t.opened_total <- t.opened_total + 1;
  s := r :: !s;
  r.id

let close t r ~ts =
  r.t_end <- ts;
  Ring.push t.closed r

(* Without [id], closes the innermost open span on the hart.  With [id],
   pops until that span is closed — any inner spans abandoned by an
   exception are closed at the same timestamp, keeping nesting coherent. *)
let exit t ~ts ~cpu ?id () =
  let s = stack t cpu in
  match (!s, id) with
  | [], _ -> () (* the matching enter predates this store *)
  | r :: rest, None ->
    s := rest;
    close t r ~ts
  | opened, Some id ->
    if List.exists (fun r -> r.id = id) opened then begin
      let rec pop = function
        | [] -> []
        | r :: rest ->
          close t r ~ts;
          if r.id = id then rest else pop rest
      in
      s := pop opened
    end

let instant t ~ts ~cpu ~kind name =
  let s = stack t cpu in
  let r = { id = t.next_id; parent = top_id s; name; kind; cpu; t_begin = ts; t_end = ts } in
  t.next_id <- t.next_id + 1;
  t.opened_total <- t.opened_total + 1;
  Ring.push t.closed r;
  r.id

let closed t = Ring.to_list t.closed
let dropped t = Ring.dropped t.closed
let opened_total t = t.opened_total

let open_spans t =
  Hashtbl.fold (fun _ s acc -> List.rev_append !s acc) t.stacks []
  |> List.sort (fun a b -> compare a.id b.id)

let record_to_json r =
  let open Util.Json in
  Obj
    [
      ("id", Int r.id);
      ("parent", Int r.parent);
      ("name", String r.name);
      ("kind", String (kind_to_string r.kind));
      ("cpu", Int r.cpu);
      ("begin", Int r.t_begin);
      ("end", if is_open r then Null else Int r.t_end);
    ]

let record_of_json j =
  let open Util.Json in
  let int k = to_int (member k j) in
  let kind =
    match kind_of_string (to_str (member "kind" j)) with
    | Some k -> k
    | None -> invalid_arg "Span.record_of_json: unknown kind"
  in
  {
    id = int "id";
    parent = int "parent";
    name = to_str (member "name" j);
    kind;
    cpu = int "cpu";
    t_begin = int "begin";
    t_end = (match member "end" j with Null -> -1 | v -> to_int v);
  }

(* Aggregate digest: per-(name, kind) counts and cycle totals over the
   closed ring, plus store-level accounting.  This is what report/bench
   artifacts keep without storing every span. *)
let digest_json t =
  let agg : (string * kind, int ref * int ref * int ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun r ->
      let count, total, worst =
        match Hashtbl.find_opt agg (r.name, r.kind) with
        | Some cell -> cell
        | None ->
          let cell = (ref 0, ref 0, ref 0) in
          Hashtbl.add agg (r.name, r.kind) cell;
          cell
      in
      incr count;
      total := !total + duration r;
      worst := max !worst (duration r))
    (closed t);
  let by_name =
    Hashtbl.fold
      (fun (name, kind) (count, total, worst) acc ->
        ( name,
          Util.Json.Obj
            [
              ("kind", Util.Json.String (kind_to_string kind));
              ("count", Util.Json.Int !count);
              ("total_cycles", Util.Json.Int !total);
              ("max_cycles", Util.Json.Int !worst);
            ] )
        :: acc)
      agg []
    |> List.sort compare
  in
  Util.Json.Obj
    [
      ("opened_total", Util.Json.Int t.opened_total);
      ("closed_in_ring", Util.Json.Int (Ring.length t.closed));
      ("dropped", Util.Json.Int (Ring.dropped t.closed));
      ("open_now", Util.Json.Int (List.length (open_spans t)));
      ("by_name", Util.Json.Obj by_name);
    ]
