type run = {
  run_base : int;
  cls : Size_class.t;
  bitmap : int array; (* one bit per slot, 32 per word; bits past the last slot stay set *)
  mutable free_slots : int;
  mutable next_probe : int; (* rotating first-free search start *)
  mutable released : bool;
}

(* The host-side page indices are dense arrays over the pool's pages,
   indexed by page number minus the pool's first page.  They grow with
   the pool's frontier, never to the size of its reservation. *)
type t = {
  machine : Sim.Machine.t;
  pool : Pool.t;
  base_page : int;
  nonfull : run list array; (* per class, runs with at least one free slot *)
  mutable page_to_run : run array; (* [no_run] where no live run *)
  mutable large : int array; (* pages of the large block based at that page; 0 = none *)
  no_run : run; (* [page_to_run]'s filler; never modified *)
  mutable run_pages : int; (* pages mapped in [page_to_run] *)
  stats : Alloc_stats.t;
}

(* Cycle costs of the allocator itself (fast paths, per §5.3 jemalloc is
   the performant allocator of the pair). *)
let cost_alloc_fast = 24
let cost_free = 18
let cost_run_setup = 180
let cost_large = 150
let cost_large_free = 60

let create machine pool =
  let no_run =
    { run_base = 0; cls = Size_class.small_class 1; bitmap = [||]; free_slots = 0; next_probe = 0;
      released = true }
  in
  {
    machine;
    pool;
    base_page = Vmm.Layout.page_of_addr (Pool.base pool);
    nonfull = Array.make Size_class.count [];
    page_to_run = Array.make 64 no_run;
    large = Array.make 64 0;
    no_run;
    run_pages = 0;
    stats = Alloc_stats.create ();
  }

let page_size = Vmm.Layout.page_size

(* Index into the dense page arrays, or -1 outside the pool. *)
let page_index t addr =
  let i = Vmm.Layout.page_of_addr addr - t.base_page in
  if i >= 0 && i < Array.length t.page_to_run then i else -1

(* Grow both page arrays to hold index [i]. *)
let reach t i =
  let n = Array.length t.page_to_run in
  if i >= n then begin
    let n' = max (i + 1) (2 * n) in
    let runs = Array.make n' t.no_run and large = Array.make n' 0 in
    Array.blit t.page_to_run 0 runs 0 n;
    Array.blit t.large 0 large 0 n;
    t.page_to_run <- runs;
    t.large <- large
  end

let new_run t cls =
  let pages = Size_class.run_pages cls in
  match Pool.alloc_span t.pool pages with
  | None -> None
  | Some run_base ->
    let slots = Size_class.slots_per_run cls in
    let bitmap = Array.make ((slots + 31) / 32) 0 in
    if slots land 31 <> 0 then bitmap.(slots / 32) <- -1 lsl (slots land 31) land 0xFFFF_FFFF;
    let run = { run_base; cls; bitmap; free_slots = slots; next_probe = 0; released = false } in
    let first = Vmm.Layout.page_of_addr run_base - t.base_page in
    reach t (first + pages - 1);
    for i = first to first + pages - 1 do
      t.page_to_run.(i) <- run
    done;
    t.run_pages <- t.run_pages + pages;
    Sim.Machine.charge t.machine cost_run_setup;
    Some run

(* Pop a usable run for [cls], discarding stale entries (full or released
   runs linger in the list and are skipped lazily). *)
let rec current_run t cls =
  match t.nonfull.(Size_class.to_int cls) with
  | [] ->
    (match new_run t cls with
    | None -> None
    | Some run ->
      t.nonfull.(Size_class.to_int cls) <- [ run ];
      Some run)
  | run :: rest ->
    if run.released || run.free_slots = 0 then begin
      t.nonfull.(Size_class.to_int cls) <- rest;
      current_run t cls
    end
    else Some run

(* The first clear bit of [bm] in words [w, last], or -1. *)
let rec first_clear bm w last =
  if w > last then -1
  else
    let free = lnot (Array.unsafe_get bm w) land 0xFFFF_FFFF in
    if free <> 0 then (w lsl 5) + Bits.lowest_set free else first_clear bm (w + 1) last

(* The first free slot at or after [next_probe], wrapping around: a
   word at a time.  The rest of the start word is checked first; the
   wrapped pass may re-check that word whole, because its bits from
   [next_probe] on are known set by then. *)
let find_free_slot run =
  let bm = run.bitmap in
  let start = run.next_probe in
  let w = start lsr 5 in
  let free = lnot bm.(w) land 0xFFFF_FFFF land (-1 lsl (start land 31)) in
  if free <> 0 then (w lsl 5) + Bits.lowest_set free
  else
    let slot = first_clear bm (w + 1) (Array.length bm - 1) in
    if slot >= 0 then slot else first_clear bm 0 w

let alloc_small t cls =
  match current_run t cls with
  | None -> None
  | Some run ->
    (* free_slots > 0 guarantees a slot *)
    let slot = find_free_slot run in
    let w = slot lsr 5 in
    run.bitmap.(w) <- run.bitmap.(w) lor (1 lsl (slot land 31));
    run.free_slots <- run.free_slots - 1;
    run.next_probe <- (slot + 1) mod Size_class.slots_per_run cls;
    Sim.Machine.charge t.machine cost_alloc_fast;
    Alloc_stats.record_alloc t.stats (Size_class.bytes cls);
    Some (run.run_base + (slot * Size_class.bytes cls))

let alloc_large t size =
  let pages = (size + page_size - 1) / page_size in
  match Pool.alloc_span t.pool pages with
  | None -> None
  | Some addr ->
    let i = Vmm.Layout.page_of_addr addr - t.base_page in
    reach t i;
    t.large.(i) <- pages;
    Sim.Machine.charge t.machine cost_large;
    Alloc_stats.record_alloc t.stats (pages * page_size);
    Some addr

let alloc t size =
  if size <= 0 then invalid_arg "Jemalloc_model.alloc: non-positive size";
  if size <= Size_class.max_small then alloc_small t (Size_class.small_class size)
  else alloc_large t size

(* Pages of the large block based exactly at [addr], or 0. *)
let large_pages t addr =
  let i = page_index t addr in
  if i >= 0 && Vmm.Layout.page_offset addr = 0 then t.large.(i) else 0

(* The live run holding [addr], or [t.no_run]. *)
let run_of_addr t addr =
  let i = page_index t addr in
  if i >= 0 then t.page_to_run.(i) else t.no_run

let free t addr =
  let pages = large_pages t addr in
  if pages > 0 then begin
    t.large.(page_index t addr) <- 0;
    Pool.free_span t.pool addr pages;
    Sim.Machine.charge t.machine cost_large_free;
    Alloc_stats.record_free t.stats (pages * page_size)
  end
  else begin
    let run = run_of_addr t addr in
    if run == t.no_run then
      invalid_arg (Printf.sprintf "Jemalloc_model.free: unknown pointer 0x%x" addr);
    let bytes = Size_class.bytes run.cls in
    let offset = addr - run.run_base in
    if offset mod bytes <> 0 then
      invalid_arg (Printf.sprintf "Jemalloc_model.free: misaligned pointer 0x%x" addr);
    let slot = offset / bytes in
    let w = slot lsr 5 and bit = 1 lsl (slot land 31) in
    if run.bitmap.(w) land bit = 0 then
      invalid_arg (Printf.sprintf "Jemalloc_model.free: double free at 0x%x" addr);
    run.bitmap.(w) <- run.bitmap.(w) land lnot bit;
    let was_full = run.free_slots = 0 in
    run.free_slots <- run.free_slots + 1;
    Sim.Machine.charge t.machine cost_free;
    Alloc_stats.record_free t.stats bytes;
    let slots = Size_class.slots_per_run run.cls in
    if run.free_slots = slots then begin
      (* Run entirely free: give its pages back to the pool. *)
      run.released <- true;
      let pages = Size_class.run_pages run.cls in
      let first = Vmm.Layout.page_of_addr run.run_base - t.base_page in
      for i = first to first + pages - 1 do
        t.page_to_run.(i) <- t.no_run
      done;
      t.run_pages <- t.run_pages - pages;
      Pool.free_span t.pool run.run_base pages
    end
    else if was_full then
      t.nonfull.(Size_class.to_int run.cls) <-
        run :: t.nonfull.(Size_class.to_int run.cls)
  end

let usable_size t addr =
  let pages = large_pages t addr in
  if pages > 0 then Some (pages * page_size)
  else
    let run = run_of_addr t addr in
    if run == t.no_run then None else Some (Size_class.bytes run.cls)

let try_resize t addr new_size =
  Sim.Machine.charge t.machine cost_free;
  match usable_size t addr with
  | Some usable -> new_size > 0 && new_size <= usable
  | None -> invalid_arg (Printf.sprintf "Jemalloc_model.try_resize: unknown pointer 0x%x" addr)

let stats t = t.stats

(* Index validator for the property tests: the page indices agree with
   the runs and large blocks they point at. *)
let check_index t =
  let exception Bad of string in
  let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt in
  try
    let mapped = ref 0 in
    Array.iteri
      (fun i run ->
        if run != t.no_run then begin
          incr mapped;
          let first = Vmm.Layout.page_of_addr run.run_base - t.base_page in
          let pages = Size_class.run_pages run.cls in
          if run.released then bad "page %d maps a released run" i;
          if i < first || i >= first + pages then bad "page %d maps a run at 0x%x" i run.run_base;
          if t.large.(i) <> 0 then bad "page %d is both run and large base" i;
          if i = first then begin
            let slots = Size_class.slots_per_run run.cls in
            let used = ref 0 in
            for s = 0 to (32 * Array.length run.bitmap) - 1 do
              let set = run.bitmap.(s lsr 5) land (1 lsl (s land 31)) <> 0 in
              if s < slots then (if set then incr used)
              else if not set then bad "run 0x%x: bit %d past the last slot is clear" run.run_base s
            done;
            if !used <> slots - run.free_slots then
              bad "run 0x%x: %d slots marked, free_slots says %d" run.run_base !used
                (slots - run.free_slots)
          end
        end)
      t.page_to_run;
    if !mapped <> t.run_pages then bad "%d pages mapped, run_pages says %d" !mapped t.run_pages;
    Array.iteri
      (fun i pages ->
        for j = i to min (Array.length t.large - 1) (i + pages - 1) do
          if t.page_to_run.(j) != t.no_run then bad "large block at page %d overlaps a run" i
        done)
      t.large;
    Ok ()
  with Bad msg -> Error msg
