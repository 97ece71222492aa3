type record = {
  addr : int;
  size : int;
  alloc_id : Alloc_id.t;
}

(* The page index: for every page a live object touches, the records
   whose base lies on that page (ascending by base), and the one record
   that starts on an earlier page and reaches into it.  Live objects
   never overlap, so at most one object reaches into a page from below,
   and an interior pointer is resolved by one table probe plus a binary
   search within its page. *)
type page = {
  mutable starts : record array; (* [0, n) ascending by addr *)
  mutable n : int;
  mutable spill : record; (* [none] when no earlier object reaches in *)
}

type t = {
  pages : page Util.Int_table.t; (* page number -> page *)
  no_page : page; (* the table's dummy; never modified *)
  mutable live : int;
}

(* Size 0: contains no address. *)
let none = { addr = 0; size = 0; alloc_id = Alloc_id.synthetic 0 }

let create () =
  let no_page = { starts = [||]; n = 0; spill = none } in
  { pages = Util.Int_table.create ~dummy:no_page 64; no_page; live = 0 }

let page_of a = a asr Vmm.Layout.page_shift
let last_page r = page_of (r.addr + Int.max r.size 1 - 1)

(* Index of the last record in [p.starts] whose base is <= [a], or -1. *)
let floor_index p a =
  let lo = ref 0 and hi = ref p.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if (Array.unsafe_get p.starts mid).addr <= a then lo := mid + 1 else hi := mid
  done;
  !lo - 1

let page_for_insert t pn =
  let p = Util.Int_table.get t.pages pn in
  if p != t.no_page then p
  else begin
    let p = { starts = [||]; n = 0; spill = none } in
    Util.Int_table.replace t.pages pn p;
    p
  end

let drop_if_empty t pn p = if p.n = 0 && p.spill == none then Util.Int_table.remove t.pages pn

(* Index in [p] (the page of [addr]) of the record based exactly at
   [addr], or -1. *)
let base_index p addr =
  let i = floor_index p addr in
  if i >= 0 && (Array.unsafe_get p.starts i).addr = addr then i else -1

let remove_at t p i =
  let r = p.starts.(i) in
  Array.blit p.starts (i + 1) p.starts i (p.n - i - 1);
  p.n <- p.n - 1;
  p.starts.(p.n) <- none;
  let first = page_of r.addr in
  drop_if_empty t first p;
  for pn = first + 1 to last_page r do
    let q = Util.Int_table.get t.pages pn in
    if q.spill == r then begin
      q.spill <- none;
      drop_if_empty t pn q
    end
  done;
  t.live <- t.live - 1

let insert t r =
  let first = page_of r.addr in
  let p = page_for_insert t first in
  let i = floor_index p r.addr + 1 in
  if p.n = Array.length p.starts then begin
    let bigger = Array.make (Int.max 4 (2 * p.n)) none in
    Array.blit p.starts 0 bigger 0 p.n;
    p.starts <- bigger
  end;
  Array.blit p.starts i p.starts (i + 1) (p.n - i);
  p.starts.(i) <- r;
  p.n <- p.n + 1;
  for pn = first + 1 to last_page r do
    let q = page_for_insert t pn in
    if q.spill == none || q.spill.addr < r.addr then q.spill <- r
  done;
  t.live <- t.live + 1

let on_dealloc t ~addr =
  let p = Util.Int_table.get t.pages (page_of addr) in
  let i = base_index p addr in
  if i >= 0 then remove_at t p i

(* A base that is already tracked is replaced, as a fresh object.  The
   common case appends: a bump-allocated object above every base on its
   page, with room left in the page's array, that ends on that page
   tracks no base at [addr] and spills into no other page. *)
let on_alloc t ~addr ~size ~alloc_id =
  let pn = page_of addr in
  let p = Util.Int_table.get t.pages pn in
  let n = p.n in
  if
    n < Array.length p.starts
    && (n = 0 || (Array.unsafe_get p.starts (n - 1)).addr < addr)
    && page_of (addr + Int.max size 1 - 1) = pn
  then begin
    Array.unsafe_set p.starts n { addr; size; alloc_id };
    p.n <- n + 1;
    t.live <- t.live + 1
  end
  else begin
    on_dealloc t ~addr;
    insert t { addr; size; alloc_id }
  end

let on_realloc t ~old_addr ~new_addr ~new_size =
  let p = Util.Int_table.get t.pages (page_of old_addr) in
  let i = base_index p old_addr in
  if i >= 0 then begin
    let alloc_id = p.starts.(i).alloc_id in
    remove_at t p i;
    on_alloc t ~addr:new_addr ~size:new_size ~alloc_id
  end

let missing = none

let find t a =
  let p = Util.Int_table.get t.pages (page_of a) in
  let i = floor_index p a in
  let r = if i >= 0 then Array.unsafe_get p.starts i else p.spill in
  if r != none && a < r.addr + r.size then r else none

let lookup t a =
  let r = find t a in
  if r == none then None else Some r

let live_count t = t.live

(* Census iteration: live records in ascending base-address order, so
   any aggregation over the table is deterministic. *)
let fold f t init =
  Array.fold_left
    (fun acc pn ->
      let p = Util.Int_table.get t.pages pn in
      let acc = ref acc in
      for i = 0 to p.n - 1 do
        acc := f p.starts.(i) !acc
      done;
      !acc)
    init
    (Util.Int_table.sorted_keys t.pages)

let iter f t = fold (fun r () -> f r) t ()
