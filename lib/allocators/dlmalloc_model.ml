(* Boundary-tag allocator with metadata in simulated memory.

   Chunk layout (sizes are multiples of 16 and include both tags):

     c+0      header  u64 = size | in_use
     c+8      payload (fwd pointer when free)
     c+16     ...     (bck pointer when free)
     c+size-8 footer  u64 = size | in_use

   Segments are page spans bracketed by 8-byte in_use sentinels of size 0,
   so coalescing walks can never leave the segment. *)

type segment = {
  seg_base : int;
  seg_len : int;
}

(* Two host-side indices mirror what the simulated heap already says,
   so the host never has to walk for it:
   - [binmap], real dlmalloc's smallmap: bit b is set exactly when bin b
     is non-empty.  An empty bin costs the simulation no read, so
     skipping it here changes no cycle.
   - [live], one bit per 16-byte granule of the pool (payloads are
     16-aligned): set exactly for live payload addresses.  It grows with
     the pool's frontier, never to the size of its reservation. *)
type t = {
  machine : Sim.Machine.t;
  pool : Pool.t;
  base : int; (* the pool's base: granule 0 of [live] *)
  bins : int array; (* head chunk address per bin; 0 = empty *)
  binmap : int array; (* 32 bins per word *)
  mutable live : Bytes.t;
  mutable fit_size : int; (* size of the chunk [find_fit] returned *)
  mutable segments : segment list;
  stats : Alloc_stats.t;
}

let bin_count = 96
let min_chunk = 32
let default_segment_pages = 16
let cost_op_overhead = 20

let create machine pool =
  {
    machine;
    pool;
    base = Pool.base pool;
    bins = Array.make bin_count 0;
    binmap = Array.make (bin_count / 32) 0;
    live = Bytes.make 64 '\000';
    fit_size = 0;
    segments = [];
    stats = Alloc_stats.create ();
  }

(* --- the live-payload bitmap --- *)

let is_live t payload =
  let g = payload - t.base in
  g >= 0
  && g land 15 = 0
  && (let g = g lsr 4 in
      g lsr 3 < Bytes.length t.live
      && Char.code (Bytes.unsafe_get t.live (g lsr 3)) land (1 lsl (g land 7)) <> 0)

let set_live t payload =
  let g = (payload - t.base) lsr 4 in
  let i = g lsr 3 in
  if i >= Bytes.length t.live then begin
    let bigger = Bytes.make (Int.max (i + 1) (2 * Bytes.length t.live)) '\000' in
    Bytes.blit t.live 0 bigger 0 (Bytes.length t.live);
    t.live <- bigger
  end;
  Bytes.unsafe_set t.live i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.live i) lor (1 lsl (g land 7))))

(* [payload] must be live. *)
let clear_live t payload =
  let g = (payload - t.base) lsr 4 in
  let i = g lsr 3 in
  Bytes.unsafe_set t.live i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get t.live i) land lnot (1 lsl (g land 7))))

let page_size = Vmm.Layout.page_size

let in_use v = v land 1 = 1
let chunk_size v = v land lnot 15
let tag ~size ~used = size lor (if used then 1 else 0)

let read t addr = Sim.Machine.read_u64 t.machine addr
let write t addr v = Sim.Machine.write_u64 t.machine addr v

let set_tags t c size used =
  write t c (tag ~size ~used);
  write t (c + size - 8) (tag ~size ~used)

let round16 n = (n + 15) land lnot 15

let rec log2 v = if v <= 1 then 0 else 1 + log2 (v / 2)

let bin_index size =
  let size16 = size lsr 4 in
  if size16 < 64 then size16 else 64 + Int.min 31 (log2 (size / 1024))

(* Free-list surgery; fwd lives at c+8, bck at c+16. *)

let insert_free t c size =
  let b = bin_index size in
  let head = t.bins.(b) in
  write t (c + 8) head;
  write t (c + 16) 0;
  if head <> 0 then write t (head + 16) c;
  t.bins.(b) <- c;
  t.binmap.(b lsr 5) <- t.binmap.(b lsr 5) lor (1 lsl (b land 31))

let unlink_free t c size =
  let b = bin_index size in
  let fwd = read t (c + 8) in
  let bck = read t (c + 16) in
  if bck = 0 then t.bins.(b) <- fwd else write t (bck + 8) fwd;
  if fwd <> 0 then write t (fwd + 16) bck;
  if t.bins.(b) = 0 then t.binmap.(b lsr 5) <- t.binmap.(b lsr 5) land lnot (1 lsl (b land 31))

let new_segment t min_bytes =
  let pages = Int.max default_segment_pages ((min_bytes + 16 + page_size - 1) / page_size) in
  match Pool.alloc_span t.pool pages with
  | None -> false
  | Some base ->
    let len = pages * page_size in
    (* Start and end sentinels: fake in-use chunks of size 0. *)
    write t base (tag ~size:0 ~used:true);
    write t (base + len - 8) (tag ~size:0 ~used:true);
    let c = base + 8 in
    let size = len - 16 in
    set_tags t c size false;
    insert_free t c size;
    t.segments <- { seg_base = base; seg_len = len } :: t.segments;
    true

(* The first non-empty bin among word [w]'s bits in [mask] and the words
   above it; [bin_count] when none. *)
let rec next_bin t w mask =
  if w >= Array.length t.binmap then bin_count
  else
    let bits = Array.unsafe_get t.binmap w land mask in
    if bits <> 0 then (w lsl 5) + Bits.lowest_set bits else next_bin t (w + 1) (-1)

(* First fit: scan the non-empty bins from the request's bin upward,
   walking each list.  The chunk's address, or 0; its size lands in
   [t.fit_size]. *)
let rec scan_bin t req b =
  let b = if b >= bin_count then bin_count else next_bin t (b lsr 5) (-1 lsl (b land 31)) in
  if b >= bin_count then 0 else walk_bin t req b t.bins.(b)

and walk_bin t req b c =
  if c = 0 then scan_bin t req (b + 1)
  else
    let hdr = read t c in
    if chunk_size hdr >= req then begin
      t.fit_size <- chunk_size hdr;
      c
    end
    else walk_bin t req b (read t (c + 8))

let find_fit t req = scan_bin t req (bin_index req)

(* Carve [req] bytes from the front of the free chunk [c] found by
   [find_fit], binning any remainder large enough to be a chunk. *)
let take t c req =
  let found_size = t.fit_size in
  unlink_free t c found_size;
  let remainder = found_size - req in
  let size_taken =
    if remainder >= min_chunk then begin
      let r = c + req in
      set_tags t r remainder false;
      insert_free t r remainder;
      req
    end
    else found_size
  in
  set_tags t c size_taken true;
  c

let alloc t size =
  if size <= 0 then invalid_arg "Dlmalloc_model.alloc: non-positive size";
  Sim.Machine.charge t.machine cost_op_overhead;
  let req = Int.max min_chunk (round16 (size + 16)) in
  let c = find_fit t req in
  let c =
    if c <> 0 then take t c req
    else if new_segment t req then
      let c = find_fit t req in
      if c <> 0 then take t c req else 0
    else 0
  in
  if c = 0 then None
  else begin
    let payload = c + 8 in
    set_live t payload;
    Alloc_stats.record_alloc t.stats (chunk_size (read t c) - 16);
    Some payload
  end

let free t payload =
  if not (is_live t payload) then
    invalid_arg (Printf.sprintf "Dlmalloc_model.free: unknown or freed pointer 0x%x" payload);
  clear_live t payload;
  Sim.Machine.charge t.machine cost_op_overhead;
  let c = payload - 8 in
  let hdr = read t c in
  if not (in_use hdr) then
    invalid_arg (Printf.sprintf "Dlmalloc_model.free: double free at 0x%x" payload);
  let size = chunk_size hdr in
  let footer = read t (c + size - 8) in
  if footer <> hdr then
    invalid_arg (Printf.sprintf "Dlmalloc_model.free: corrupted boundary tag at 0x%x" payload);
  Alloc_stats.record_free t.stats (size - 16);
  (* Coalesce with the following chunk. *)
  let c, size =
    let next = c + size in
    let next_hdr = read t next in
    if in_use next_hdr then (c, size)
    else begin
      let next_size = chunk_size next_hdr in
      unlink_free t next next_size;
      (c, size + next_size)
    end
  in
  (* Coalesce with the preceding chunk (its footer sits just below us). *)
  let c, size =
    let prev_footer = read t (c - 8) in
    if in_use prev_footer then (c, size)
    else begin
      let prev_size = chunk_size prev_footer in
      let prev = c - prev_size in
      unlink_free t prev prev_size;
      (prev, size + prev_size)
    end
  in
  set_tags t c size false;
  insert_free t c size

(* In-place resize: the classic dlmalloc fast paths.  Shrinking carves the
   tail into a free chunk; growing absorbs a free successor. *)
let try_resize t payload new_size =
  if not (is_live t payload) then
    invalid_arg (Printf.sprintf "Dlmalloc_model.try_resize: unknown pointer 0x%x" payload);
  Sim.Machine.charge t.machine cost_op_overhead;
  let c = payload - 8 in
  let size = chunk_size (read t c) in
  let needed = Int.max min_chunk (round16 (new_size + 16)) in
  if needed <= size then begin
    (* Shrink (or exact fit): split the tail off when it makes a chunk. *)
    let remainder = size - needed in
    if remainder >= min_chunk then begin
      set_tags t c needed true;
      let r = c + needed in
      set_tags t r remainder false;
      (* Coalesce the remainder with a free successor before binning. *)
      let next = r + remainder in
      let next_hdr = read t next in
      let r, remainder =
        if in_use next_hdr then (r, remainder)
        else begin
          let next_size = chunk_size next_hdr in
          unlink_free t next next_size;
          let merged = remainder + next_size in
          set_tags t r merged false;
          (r, merged)
        end
      in
      insert_free t r remainder;
      Alloc_stats.record_free t.stats (size - needed)
    end;
    true
  end
  else begin
    let next = c + size in
    let next_hdr = read t next in
    if in_use next_hdr then false
    else begin
      let next_size = chunk_size next_hdr in
      if size + next_size < needed then false
      else begin
        unlink_free t next next_size;
        let total = size + next_size in
        let remainder = total - needed in
        if remainder >= min_chunk then begin
          set_tags t c needed true;
          let r = c + needed in
          set_tags t r remainder false;
          insert_free t r remainder;
          Alloc_stats.record_alloc t.stats (needed - size)
        end
        else begin
          set_tags t c total true;
          Alloc_stats.record_alloc t.stats (total - size)
        end;
        true
      end
    end
  end

let usable_size t payload =
  if is_live t payload then Some (chunk_size (read t (payload - 8)) - 16) else None

let stats t = t.stats

(* Heap validator for the property tests; uses privileged reads so it does
   not perturb cycle counts. *)
let check_heap t =
  let priv = Sim.Machine.priv_read_u64 t.machine in
  let exception Bad of string in
  try
    (* Collect every chunk threaded through the bins. *)
    let binned = Hashtbl.create 64 in
    Array.iteri
      (fun b head ->
        let rec walk c steps =
          if c <> 0 then begin
            if steps > 1_000_000 then raise (Bad (Printf.sprintf "bin %d: cycle" b));
            if Hashtbl.mem binned c then raise (Bad (Printf.sprintf "bin %d: duplicate chunk" b));
            Hashtbl.add binned c ();
            walk (priv (c + 8)) (steps + 1)
          end
        in
        walk head 0)
      t.bins;
    Array.iteri
      (fun b head ->
        let bit = t.binmap.(b lsr 5) land (1 lsl (b land 31)) <> 0 in
        if bit <> (head <> 0) then
          raise (Bad (Printf.sprintf "bin %d: bitmap bit %b but bin %s" b bit
                        (if head = 0 then "empty" else "non-empty"))))
      t.bins;
    let seen_free = ref 0 in
    List.iter
      (fun seg ->
        let first = seg.seg_base + 8 in
        let stop = seg.seg_base + seg.seg_len - 8 in
        if priv seg.seg_base <> tag ~size:0 ~used:true then raise (Bad "bad start sentinel");
        if priv stop <> tag ~size:0 ~used:true then raise (Bad "bad end sentinel");
        let rec walk c prev_free =
          if c > stop then raise (Bad "chunk walk overran segment")
          else if c = stop then ()
          else
            let hdr = priv c in
            let size = chunk_size hdr in
            if size < min_chunk || size mod 16 <> 0 then
              raise (Bad (Printf.sprintf "bad chunk size %d at 0x%x" size c));
            if priv (c + size - 8) <> hdr then
              raise (Bad (Printf.sprintf "footer mismatch at 0x%x" c));
            let free = not (in_use hdr) in
            if free then begin
              incr seen_free;
              if prev_free then raise (Bad (Printf.sprintf "uncoalesced free chunks at 0x%x" c));
              if not (Hashtbl.mem binned c) then
                raise (Bad (Printf.sprintf "free chunk 0x%x not in any bin" c))
            end
            else if not (is_live t (c + 8)) then
              raise (Bad (Printf.sprintf "in-use chunk 0x%x not in live set" c));
            walk (c + size) free
        in
        walk first false)
      t.segments;
    if !seen_free <> Hashtbl.length binned then
      raise
        (Bad
           (Printf.sprintf "free count mismatch: %d walked vs %d binned" !seen_free
              (Hashtbl.length binned)));
    Ok ()
  with Bad msg -> Error msg
