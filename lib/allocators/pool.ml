type span = {
  span_base : int;
  span_pages : int;
}

type t = {
  machine : Sim.Machine.t;
  base : int;
  size : int;
  pkey : Mpk.Pkey.t;
  backing : Backing.t option;
      (* shared page budget (fleet memory contention); [None] = unbounded
         beyond the pool's own reservation, exactly the pre-fleet behavior *)
  mutable frontier : int; (* next never-used address *)
  mutable free_spans : span list;
  mutable pages_in_use : int;
  mutable high_water : int;
  mutable retired : bool;
}

let create ?backing machine ~base ~size ~pkey =
  match
    Vmm.Page_table.reserve machine.Sim.Machine.page_table ~base ~size ~prot:Vmm.Prot.read_write
      ~pkey
  with
  | Error _ as e -> e
  | Ok () ->
    Ok
      {
        machine;
        base;
        size;
        pkey;
        backing;
        frontier = base;
        free_spans = [];
        pages_in_use = 0;
        high_water = 0;
        retired = false;
      }

let page_size = Vmm.Layout.page_size

let note_use t npages =
  t.pages_in_use <- t.pages_in_use + npages;
  if t.pages_in_use > t.high_water then t.high_water <- t.pages_in_use

(* Spans recycled through the pool's own free list keep their budget
   pages (free_span gave them back, alloc takes them again), so the
   budget always mirrors [pages_in_use] exactly. *)
let backed t npages =
  match t.backing with
  | None -> true
  | Some b -> Backing.take b npages

let alloc_span t npages =
  assert (npages > 0);
  if not (backed t npages) then None
  else begin
    (* First fit among recycled spans, splitting when oversized. *)
    let rec take acc = function
      | [] -> None
      | span :: rest when span.span_pages >= npages ->
        let remainder =
          if span.span_pages > npages then
            [ { span_base = span.span_base + (npages * page_size); span_pages = span.span_pages - npages } ]
          else []
        in
        t.free_spans <- List.rev_append acc (remainder @ rest);
        Some span.span_base
      | span :: rest -> take (span :: acc) rest
    in
    match take [] t.free_spans with
    | Some addr ->
      note_use t npages;
      Some addr
    | None ->
      let bytes = npages * page_size in
      if t.frontier + bytes > t.base + t.size then begin
        (* Reservation exhausted: the budget pages were never used. *)
        (match t.backing with Some b -> Backing.give b npages | None -> ());
        None
      end
      else begin
        let addr = t.frontier in
        t.frontier <- t.frontier + bytes;
        note_use t npages;
        Some addr
      end
  end

let free_span t addr npages =
  assert (addr >= t.base && addr + (npages * page_size) <= t.base + t.size);
  t.free_spans <- { span_base = addr; span_pages = npages } :: t.free_spans;
  t.pages_in_use <- t.pages_in_use - npages;
  match t.backing with Some b -> Backing.give b npages | None -> ()

let retire t =
  (* Session teardown: return every outstanding page to the shared budget
     exactly once.  The pool must not be used afterwards. *)
  if not t.retired then begin
    t.retired <- true;
    match t.backing with
    | Some b -> Backing.give b t.pages_in_use
    | None -> ()
  end

let contains t addr = addr >= t.base && addr < t.base + t.size

let base t = t.base
let pages_in_use t = t.pages_in_use
let high_water_pages t = t.high_water
