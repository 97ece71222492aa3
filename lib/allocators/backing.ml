(* A shared backing-page budget.

   Each pool's reservation is still its own disjoint address range (the
   paper's no-migration invariant is untouched — a budget page never has
   an identity, only a count), but the number of pages a set of pools may
   have in use at once is bounded by one shared budget.  A fleet gives
   every session's pools the same budget, so sessions contend for memory
   the way a real farm's tabs contend for RAM: when the budget runs dry,
   [alloc_span] fails and the session dies with [Out_of_memory].

   A recorder stands in for the shared budget while a session runs on its
   own: it grants every take except those it was told to refuse, and logs
   each take and give so that the fleet can apply them to the shared
   budget later, in schedule order.  A pool's behaviour depends only on
   what its takes answer, so a session that meets the same answers
   replays the same events.

   Pure host-side accounting: taking or giving pages charges no simulated
   cycles and emits no telemetry. *)

type log = {
  refuse : int list; (* ordinals of the takes to refuse *)
  mutable events : int array; (* [0, len): every take and give so far *)
  mutable len : int;
}

type t = {
  total : int;
  mutable available : int;
  mutable min_available : int;
  mutable denials : int;
  log : log option; (* [Some]: a recorder *)
}

(* A logged event: the page count and a two-bit tag. *)
let ev_take = 0
let ev_refused = 1
let ev_give = 2

let create ~pages =
  if pages <= 0 then invalid_arg "Backing.create: pages must be positive";
  { total = pages; available = pages; min_available = pages; denials = 0; log = None }

let recorder ~refuse =
  {
    total = max_int;
    available = max_int;
    min_available = max_int;
    denials = 0;
    log = Some { refuse; events = Array.make 16 0; len = 0 };
  }

let record l tag n =
  if l.len = Array.length l.events then begin
    let bigger = Array.make (2 * l.len) 0 in
    Array.blit l.events 0 bigger 0 l.len;
    l.events <- bigger
  end;
  l.events.(l.len) <- (n lsl 2) lor tag;
  l.len <- l.len + 1

let take t n =
  match t.log with
  | Some l ->
    let refused = List.mem l.len l.refuse in
    record l (if refused then ev_refused else ev_take) n;
    if refused then t.denials <- t.denials + 1;
    not refused
  | None ->
    if n <= t.available then begin
      t.available <- t.available - n;
      if t.available < t.min_available then t.min_available <- t.available;
      true
    end
    else begin
      t.denials <- t.denials + 1;
      false
    end

let give t n =
  match t.log with
  | Some l -> record l ev_give n
  | None -> t.available <- min t.total (t.available + n)

let log t =
  match t.log with
  | Some l -> l
  | None -> invalid_arg "Backing: not a recorder"

let recorded t = (log t).len

let events t = (log t).events

let replay t events ~from ~upto =
  (match t.log with Some _ -> invalid_arg "Backing.replay: a recorder" | None -> ());
  let rec go i =
    if i >= upto then None
    else begin
      let e = events.(i) in
      let n = e lsr 2 in
      let tag = e land 3 in
      if tag = ev_give then begin
        give t n;
        go (i + 1)
      end
      else if take t n then begin
        (* A take the recorder refused is only ever one this budget
           refused before, and a replay resumes after it. *)
        assert (tag = ev_take);
        go (i + 1)
      end
      else Some i
    end
  in
  go from

let total t = t.total
let min_available t = t.min_available
let denials t = t.denials
