type t = {
  page_table : Vmm.Page_table.t;
  mutable cpu : Cpu.t;
  mutable cpus_rev : Cpu.t list;
  mutable ncpus : int;
  signals : Signals.t;
  pkeys : Vmm.Pkeys.t;
  tlb_enabled : bool;
  (* Garmr syscall filter: when set, kernel-interface entry points
     ([sys_pkey_mprotect] & co) refuse pkey/page-table mutations from a
     hart whose PKRU cannot read the trusted key (i.e. from U
     residency).  Clear (the default) is fully permissive, and internal
     callers (pkalloc, test setup) go straight to [Vmm.Page_table] /
     [Vmm.Pkeys] anyway, so the filter is invisible when disabled. *)
  mutable syscall_filter : bool;
  ctx : Telemetry.Ctx.t;
}

let create ?cost ?(tlb = true) () =
  let ctx = Telemetry.Ctx.create () in
  let boot = Cpu.create ?cost ~id:0 ~ctx () in
  {
    page_table = Vmm.Page_table.create ();
    cpu = boot;
    cpus_rev = [ boot ];
    ncpus = 1;
    signals = Signals.create ctx;
    pkeys = Vmm.Pkeys.create ();
    tlb_enabled = tlb;
    syscall_filter = false;
    ctx;
  }

let spawn_cpu t =
  let cpu = Cpu.create ~cost:t.cpu.Cpu.cost ~id:t.ncpus ~ctx:t.ctx () in
  t.cpus_rev <- cpu :: t.cpus_rev;
  t.ncpus <- t.ncpus + 1;
  cpu

let cpus t = List.rev t.cpus_rev

(* Telemetry timestamps are whole-machine cycles so that events from
   different harts order consistently in one trace.  Only a charge and
   [Cpu.reset_cycles] write a hart's clock, so the sum over harts is
   every cycle retired since the last reset.  Its readers (event
   timestamps, fleet slice ends, the mitigator) are all off the
   per-access path, which touches only the current hart's clock. *)
let total_cycles t = List.fold_left (fun acc cpu -> acc + cpu.Cpu.cycles) 0 t.cpus_rev

let tlb_stats t =
  List.fold_left
    (fun acc cpu -> Tlb.add_stats acc (Tlb.stats cpu.Cpu.tlb))
    Tlb.zero_stats t.cpus_rev

let note_thread_switch t ~from_cpu ~to_cpu =
  match t.ctx.Telemetry.Ctx.sink with
  | None -> ()
  | Some sink ->
    Telemetry.Sink.emit sink ~ts:(total_cycles t) ~cpu:to_cpu
      (Telemetry.Event.Thread_switch { from_cpu; to_cpu })

(* Non-bracketed hart switch for effect-based schedulers: a [Fun.protect]
   bracket (as in [run_on]) cannot straddle an [Effect.perform], so the
   fleet switches harts around each slice and restores the previous one
   itself.  Returns the previously current hart.  Free of simulated cost,
   like [run_on]: the scheduler's own overhead is not the workload's. *)
let switch_to_cpu t cpu =
  let previous = t.cpu in
  if previous != cpu then begin
    note_thread_switch t ~from_cpu:previous.Cpu.id ~to_cpu:cpu.Cpu.id;
    t.cpu <- cpu
  end;
  previous

let run_on t cpu f =
  let previous = t.cpu in
  note_thread_switch t ~from_cpu:previous.Cpu.id ~to_cpu:cpu.Cpu.id;
  t.cpu <- cpu;
  Fun.protect
    ~finally:(fun () ->
      note_thread_switch t ~from_cpu:cpu.Cpu.id ~to_cpu:previous.Cpu.id;
      t.cpu <- previous)
    f

(* --- The hot paths ---

   The clock tick and the TLB hit below read the other modules' records
   by field access and call only functions the compiler inlines (the
   build is not [-opaque], see dune-workspace); anything else they must
   call sits in an out-of-line slow path.  `make lint-hotpath` checks
   the compiled code. *)

(* The access check, with no option to allocate: [access_ok], or what
   denies the access. *)
let access_ok = 0
let prot_denied = 1
let pkey_denied = 2

let check_page t access (page : Vmm.Page.t) =
  let prot_ok =
    match access with
    | Vmm.Fault.Read -> page.prot.Vmm.Prot.read
    | Vmm.Fault.Write -> page.prot.Vmm.Prot.write
    | Vmm.Fault.Execute -> page.prot.Vmm.Prot.execute
  in
  if not prot_ok then prot_denied
  else
    let key = page.pkey in
    let pkru = t.cpu.Cpu.pkru in
    let pkey_ok =
      match access with
      | Vmm.Fault.Read | Vmm.Fault.Execute -> Mpk.Pkru.can_read pkru key
      | Vmm.Fault.Write -> Mpk.Pkru.can_write pkru key
    in
    if pkey_ok then access_ok else pkey_denied

(* The fault a denied access raises. *)
let denial_kind denied (page : Vmm.Page.t) =
  if denied = prot_denied then Vmm.Fault.Prot_violation else Vmm.Fault.Pkey_violation page.pkey

(* [Vmm.Page_table.lookup] without the option: the table's [no_page]
   when [addr] is unmapped.  A materialised page is read straight from
   the page index; the rest is [lookup]'s demand paging. *)
let find_page t addr =
  let pt = t.page_table in
  let page = Util.Int_table.get pt.Vmm.Page_table.pages (addr lsr Vmm.Layout.page_shift) in
  if page != pt.Vmm.Page_table.no_page then page
  else
    match Vmm.Page_table.lookup pt addr with
    | Some page -> page
    | None -> pt.Vmm.Page_table.no_page

let probe t access addr =
  let page = find_page t addr in
  if page == t.page_table.Vmm.Page_table.no_page then Some Vmm.Fault.Not_mapped
  else
    let denied = check_page t access page in
    if denied = access_ok then None else Some (denial_kind denied page)

(* Fault-path telemetry, under a sink only: describe the fault, note the
   SIGSEGV dispatch, and time handler servicing (the cycles charged
   between dispatch and the handler's return, i.e. signal dispatch plus
   whatever the handler ran). *)
let note_fault t sink (fault : Vmm.Fault.t) =
  let ts = total_cycles t in
  let cpu = t.cpu.Cpu.id in
  (match fault.Vmm.Fault.kind with
  | Vmm.Fault.Pkey_violation key ->
    Telemetry.Sink.emit sink ~ts ~cpu
      (Telemetry.Event.Mpk_fault { addr = fault.Vmm.Fault.addr; pkey = Mpk.Pkey.to_int key })
  | Vmm.Fault.Not_mapped ->
    Telemetry.Sink.emit sink ~ts ~cpu
      (Telemetry.Event.Page_fault
         { addr = fault.Vmm.Fault.addr; kind = Telemetry.Event.Not_mapped })
  | Vmm.Fault.Prot_violation ->
    Telemetry.Sink.emit sink ~ts ~cpu
      (Telemetry.Event.Page_fault
         { addr = fault.Vmm.Fault.addr; kind = Telemetry.Event.Prot_violation }));
  Telemetry.Sink.emit sink ~ts ~cpu
    (Telemetry.Event.Signal_dispatch { signal = Telemetry.Event.Segv })

let deliver_fault t fault =
  match t.ctx.Telemetry.Ctx.sink with
  | None -> Signals.deliver_segv t.signals ~cpu:t.cpu fault
  | Some sink ->
    note_fault t sink fault;
    let before = total_cycles t in
    Signals.deliver_segv t.signals ~cpu:t.cpu fault;
    Telemetry.Sink.observe sink "fault_service_cycles" (total_cycles t - before)

(* Resolve one in-page access, delivering faults until it succeeds.  The
   retry bound breaks the livelock a buggy handler would otherwise cause
   (return-from-handler normally re-executes the faulting instruction);
   when it trips, the exception carries the kind of the last fault
   actually delivered, not a made-up one. *)
let rec attempt t access addr retries last_kind =
  if retries = 0 then raise (Vmm.Fault.Unhandled { Vmm.Fault.addr; access; kind = last_kind });
  let faults_before = Vmm.Page_table.demand_faults t.page_table in
  let page = find_page t addr in
  if page == t.page_table.Vmm.Page_table.no_page then begin
    Cpu.charge t.cpu t.cpu.Cpu.cost.Cost.signal_dispatch;
    deliver_fault t { Vmm.Fault.addr; access; kind = Vmm.Fault.Not_mapped };
    attempt t access addr (retries - 1) Vmm.Fault.Not_mapped
  end
  else begin
    if Vmm.Page_table.demand_faults t.page_table > faults_before then begin
      Cpu.charge t.cpu t.cpu.Cpu.cost.Cost.soft_page_fault;
      match t.ctx.Telemetry.Ctx.sink with
      | None -> ()
      | Some sink ->
        Telemetry.Sink.emit sink ~ts:(total_cycles t) ~cpu:t.cpu.Cpu.id
          (Telemetry.Event.Page_fault { addr; kind = Telemetry.Event.Demand_paged })
    end;
    check_held t access addr page retries
  end

(* Check the page [attempt] found.  A handler that changed no mapping
   (the page table's epoch is unchanged) left that page where a lookup
   would find it, materialised, so the retry checks it again directly. *)
and check_held t access addr page retries =
  let denied = check_page t access page in
  if denied = access_ok then page
  else begin
    let kind = denial_kind denied page in
    Cpu.charge t.cpu t.cpu.Cpu.cost.Cost.signal_dispatch;
    let epoch = t.page_table.Vmm.Page_table.epoch in
    deliver_fault t { Vmm.Fault.addr; access; kind };
    if retries > 1 && t.page_table.Vmm.Page_table.epoch = epoch then
      check_held t access addr page (retries - 1)
    else attempt t access addr (retries - 1) kind
  end

(* The seed kind is never observed: retries start positive, and every
   recursive call threads the kind of a delivered fault.  [attempt] is a
   top-level loop, so a resolve allocates no closure. *)
let resolve t access addr = attempt t access addr 64 Vmm.Fault.Prot_violation

(* The TLB miss path: resolve, then refill [tlb] under the post-handler
   mapping epoch (the final successful check ran under exactly that
   mapping). *)
let[@inline always] refill t (tlb : Tlb.t) access addr page_number =
  tlb.Tlb.misses <- tlb.Tlb.misses + 1;
  let page = resolve t access addr in
  Tlb.fill tlb ~map_epoch:t.page_table.Vmm.Page_table.epoch page_number page;
  page.Vmm.Page.data

let[@inline never] translate_miss t tlb access addr page_number =
  refill t tlb access addr page_number

(* A TLB hit ([Tlb.hit]: the entry's page and mapping epoch match, and
   its protection bits and key allow the access under the live PKRU)
   proves the slow path would have succeeded without delivering any
   fault or materialising any page, so skipping [resolve] is
   architecturally invisible: no cycles or events differ.  The caller
   counts the hit, or takes [translate_miss], which counts the miss;
   misses include every access that would fault or demand-page, and the
   first under a new mapping epoch, whose fill flushes the rest.

   [translate]: the page bytes of an access, through the TLB when it is
   on. *)
let translate t access abit addr =
  if t.tlb_enabled then begin
    let page_number = addr lsr Vmm.Layout.page_shift in
    let cpu = t.cpu in
    let tlb = cpu.Cpu.tlb in
    let i = page_number land (Tlb.size - 1) in
    if Tlb.hit tlb ~map_epoch:t.page_table.Vmm.Page_table.epoch ~pkru:cpu.Cpu.pkru abit page_number i
    then begin
      tlb.Tlb.hits <- tlb.Tlb.hits + 1;
      Array.unsafe_get tlb.Tlb.data i
    end
    else translate_miss t tlb access addr page_number
  end
  else (resolve t access addr).Vmm.Page.data

(* The trap flag fires after the instruction completes (x86 #DB). *)
let[@inline never] deliver_trap t =
  t.cpu.Cpu.trap_flag <- false;
  Cpu.charge t.cpu t.cpu.Cpu.cost.Cost.signal_dispatch;
  (match t.ctx.Telemetry.Ctx.sink with
  | None -> ()
  | Some sink ->
    Telemetry.Sink.emit sink ~ts:(total_cycles t) ~cpu:t.cpu.Cpu.id
      (Telemetry.Event.Signal_dispatch { signal = Telemetry.Event.Trap }));
  Signals.deliver_trap t.signals

let[@inline always] post_access t = if t.cpu.Cpu.trap_flag then deliver_trap t

(* --- Page bytes ---

   Every access moves its bytes with [get_le]/[set_le], without bounds
   checks: the caller keeps [offset + len] within a page, and every page
   the TLB or [resolve] hands out holds a page of bytes (an invalid TLB
   entry holds none, but its tag -1 is no page number, so it never
   hits).  The common widths use fixed-width primitives instead of
   a byte loop.  Results are bit-for-bit what the loop produced: values
   are accumulated modulo 2^63 (OCaml int), so the 8-byte case masks
   away the 64th bit.  In a width entry [len] is a constant and the
   tests fold away; a [match] would stay a jump table. *)

external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap16 : int -> int = "%bswap16"
external bswap32 : int32 -> int32 = "%bswap_int32"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline always] get16 b i = if Sys.big_endian then bswap16 (get16u b i) else get16u b i
let[@inline always] get32 b i = if Sys.big_endian then bswap32 (get32u b i) else get32u b i
let[@inline always] get64 b i = if Sys.big_endian then bswap64 (get64u b i) else get64u b i
let[@inline always] set16 b i v = set16u b i (if Sys.big_endian then bswap16 v else v)
let[@inline always] set32 b i v = set32u b i (if Sys.big_endian then bswap32 v else v)
let[@inline always] set64 b i v = set64u b i (if Sys.big_endian then bswap64 v else v)

let[@inline always] get_le data offset len =
  if len = 1 then Char.code (Bytes.unsafe_get data offset)
  else if len = 2 then get16 data offset
  else if len = 4 then Int32.to_int (get32 data offset) land 0xFFFF_FFFF
  else if len = 7 then
    (* [read_u56]: the low 7 bytes of a 64-bit word *)
    Int32.to_int (get32 data offset) land 0xFFFF_FFFF
    lor (get16 data (offset + 4) lsl 32)
    lor (Char.code (Bytes.unsafe_get data (offset + 6)) lsl 48)
  else if len = 8 then Int64.to_int (get64 data offset)
  else begin
    let v = ref 0 in
    for i = len - 1 downto 0 do
      v := (!v lsl 8) lor Char.code (Bytes.unsafe_get data (offset + i))
    done;
    !v
  end

let[@inline always] set_le data offset len v =
  if len = 1 then Bytes.unsafe_set data offset (Char.unsafe_chr (v land 0xFF))
  else if len = 2 then set16 data offset (v land 0xFFFF)
  else if len = 4 then set32 data offset (Int32.of_int v)
  else if len = 7 then begin
    set32 data offset (Int32.of_int v);
    set16 data (offset + 4) ((v lsr 32) land 0xFFFF);
    Bytes.unsafe_set data (offset + 6) (Char.unsafe_chr ((v lsr 48) land 0xFF))
  end
  else if len = 8 then
    (* The loop stored (v lsr 56) land 0xFF as the top byte — bits 56-62
       of a 63-bit int, never a 64th bit — so mask the sign extension. *)
    set64 data offset (Int64.logand (Int64.of_int v) Int64.max_int)
  else
    for i = 0 to len - 1 do
      Bytes.unsafe_set data (offset + i) (Char.unsafe_chr ((v lsr (8 * i)) land 0xFF))
    done

(* --- The generic tier ---

   Page-straddling accesses, every access of a TLB-off machine, and u16
   (one caller each way).  The in-page part after the charge is
   [read_page]/[write_page]. *)

let read_page t addr len =
  let data = translate t Vmm.Fault.Read Tlb.read_bit addr in
  let v = get_le data (Vmm.Layout.page_offset addr) len in
  post_access t;
  v

let rec read_le t addr len =
  let offset = Vmm.Layout.page_offset addr in
  if offset + len <= Vmm.Layout.page_size then begin
    let cpu = t.cpu in
    Cpu.charge cpu cpu.Cpu.cost.Cost.load;
    read_page t addr len
  end
  else begin
    (* Page-straddling access: split at the boundary. *)
    let first_len = Vmm.Layout.page_size - offset in
    let low = read_le t addr first_len in
    let high = read_le t (addr + first_len) (len - first_len) in
    (high lsl (8 * first_len)) lor low
  end

let write_page t addr len v =
  let data = translate t Vmm.Fault.Write Tlb.write_bit addr in
  set_le data (Vmm.Layout.page_offset addr) len v;
  post_access t

let rec write_le t addr len v =
  let offset = Vmm.Layout.page_offset addr in
  if offset + len <= Vmm.Layout.page_size then begin
    let cpu = t.cpu in
    Cpu.charge cpu cpu.Cpu.cost.Cost.store;
    write_page t addr len v
  end
  else begin
    let first_len = Vmm.Layout.page_size - offset in
    write_le t addr first_len v;
    write_le t (addr + first_len) (len - first_len) (v asr (8 * first_len))
  end

(* --- The width entries: the fast tier ---

   Each fixed width but u16 has its own entry.  On a TLB machine, an
   access that fits in one page takes [read_le]'s steps in its order --
   charge, TLB probe, page bytes, trap check -- with the probe in line
   and no width dispatch.  Everything else takes the generic tier.
   Cycles, TLB counts, faults and events are the generic tier's.

   The hit path makes no call, so it keeps its values in registers: the
   charge is [Cpu.charge]'s, split so that with a sampler or census
   installed the hooks tick and the generic in-page tail finishes the
   access ([hooked_read]/[hooked_write]); a TLB miss finishes it in
   [read_miss]/[write_miss]; a trapped load returns its value through
   [trap_after].  All of them run out of line. *)

let[@inline never] hooked_read t n addr len =
  Cpu.tick_hooks t.cpu n;
  read_page t addr len

let[@inline never] hooked_write t n addr len v =
  Cpu.tick_hooks t.cpu n;
  write_page t addr len v

let[@inline never] read_miss t tlb addr page_number len =
  let data = refill t tlb Vmm.Fault.Read addr page_number in
  let v = get_le data (Vmm.Layout.page_offset addr) len in
  post_access t;
  v

let[@inline never] write_miss t tlb addr page_number len v =
  let data = refill t tlb Vmm.Fault.Write addr page_number in
  set_le data (Vmm.Layout.page_offset addr) len v;
  post_access t

let[@inline never] trap_after t v =
  deliver_trap t;
  v

let[@inline always] fast_read t addr len =
  if t.tlb_enabled && Vmm.Layout.page_offset addr <= Vmm.Layout.page_size - len then begin
    let cpu = t.cpu in
    let n = cpu.Cpu.cost.Cost.load in
    (* [Cpu.charge], split: the hooks tick in [hooked_read]. *)
    cpu.Cpu.cycles <- cpu.Cpu.cycles + n;
    if cpu.Cpu.ctx.Telemetry.Ctx.hooked then hooked_read t n addr len
    else begin
      let page_number = addr lsr Vmm.Layout.page_shift in
      let tlb = cpu.Cpu.tlb in
      let i = page_number land (Tlb.size - 1) in
      if
        Tlb.hit tlb ~map_epoch:t.page_table.Vmm.Page_table.epoch ~pkru:cpu.Cpu.pkru Tlb.read_bit
          page_number i
      then begin
        tlb.Tlb.hits <- tlb.Tlb.hits + 1;
        let v = get_le (Array.unsafe_get tlb.Tlb.data i) (Vmm.Layout.page_offset addr) len in
        if cpu.Cpu.trap_flag then trap_after t v else v
      end
      else read_miss t tlb addr page_number len
    end
  end
  else read_le t addr len

let[@inline always] fast_write t addr len v =
  if t.tlb_enabled && Vmm.Layout.page_offset addr <= Vmm.Layout.page_size - len then begin
    let cpu = t.cpu in
    let n = cpu.Cpu.cost.Cost.store in
    (* [Cpu.charge], split: the hooks tick in [hooked_write]. *)
    cpu.Cpu.cycles <- cpu.Cpu.cycles + n;
    if cpu.Cpu.ctx.Telemetry.Ctx.hooked then hooked_write t n addr len v
    else begin
      let page_number = addr lsr Vmm.Layout.page_shift in
      let tlb = cpu.Cpu.tlb in
      let i = page_number land (Tlb.size - 1) in
      if
        Tlb.hit tlb ~map_epoch:t.page_table.Vmm.Page_table.epoch ~pkru:cpu.Cpu.pkru Tlb.write_bit
          page_number i
      then begin
        tlb.Tlb.hits <- tlb.Tlb.hits + 1;
        set_le (Array.unsafe_get tlb.Tlb.data i) (Vmm.Layout.page_offset addr) len v;
        if cpu.Cpu.trap_flag then deliver_trap t
      end
      else write_miss t tlb addr page_number len v
    end
  end
  else write_le t addr len v

let read_u8 t addr = fast_read t addr 1
let read_u16 t addr = read_le t addr 2
let read_u32 t addr = fast_read t addr 4
let read_u64 t addr = fast_read t addr 8
let write_u8 t addr v = fast_write t addr 1 v
let write_u16 t addr v = write_le t addr 2 v
let write_u32 t addr v = fast_write t addr 4 v
let write_u64 t addr v = fast_write t addr 8 v

(* The low 56 bits of a 64-bit word, one 7-byte access: with [read_u8]
   of the eighth byte it moves a full 64-bit pattern, which an OCaml int
   (63 bits) cannot hold in one piece. *)
let read_u56 t addr = fast_read t addr 7
let write_u56 t addr v = fast_write t addr 7 v

let read_bytes t addr len =
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let offset = Vmm.Layout.page_offset a in
    let chunk = Int.min (len - !pos) (Vmm.Layout.page_size - offset) in
    Cpu.charge t.cpu (t.cpu.Cpu.cost.Cost.load * ((chunk + 7) / 8));
    let data = translate t Vmm.Fault.Read Tlb.read_bit a in
    Bytes.blit data offset out !pos chunk;
    post_access t;
    pos := !pos + chunk
  done;
  out

(* [read_bytes] appended straight to [buf]: the same charges, checks and
   faults, with no intermediate copy. *)
let read_to_buffer t addr len buf =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let offset = Vmm.Layout.page_offset a in
    let chunk = Int.min (len - !pos) (Vmm.Layout.page_size - offset) in
    Cpu.charge t.cpu (t.cpu.Cpu.cost.Cost.load * ((chunk + 7) / 8));
    let data = translate t Vmm.Fault.Read Tlb.read_bit a in
    Buffer.add_subbytes buf data offset chunk;
    post_access t;
    pos := !pos + chunk
  done

(* The string is blitted straight into the page: no host copy first. *)
let write_string t addr src =
  let len = String.length src in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let offset = Vmm.Layout.page_offset a in
    let chunk = Int.min (len - !pos) (Vmm.Layout.page_size - offset) in
    Cpu.charge t.cpu (t.cpu.Cpu.cost.Cost.store * ((chunk + 7) / 8));
    let data = translate t Vmm.Fault.Write Tlb.write_bit a in
    Bytes.blit_string src !pos data offset chunk;
    post_access t;
    pos := !pos + chunk
  done

let write_bytes t addr src = write_string t addr (Bytes.unsafe_to_string src)

let memset t addr byte len =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let offset = Vmm.Layout.page_offset a in
    let chunk = Int.min (len - !pos) (Vmm.Layout.page_size - offset) in
    Cpu.charge t.cpu (t.cpu.Cpu.cost.Cost.store * ((chunk + 7) / 8));
    let data = translate t Vmm.Fault.Write Tlb.write_bit a in
    Bytes.fill data offset chunk byte;
    post_access t;
    pos := !pos + chunk
  done

(* Privileged path: used by the fault handler ("operates as part of T and
   is able to inspect trusted memory") and by test setup. *)
let priv_page t addr =
  match Vmm.Page_table.lookup t.page_table addr with
  | Some page -> page
  | None ->
    raise (Vmm.Fault.Unhandled { Vmm.Fault.addr; access = Vmm.Fault.Read; kind = Vmm.Fault.Not_mapped })

let priv_read_bytes t addr len =
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let offset = Vmm.Layout.page_offset a in
    let chunk = Int.min (len - !pos) (Vmm.Layout.page_size - offset) in
    let page = priv_page t a in
    Bytes.blit page.Vmm.Page.data offset out !pos chunk;
    pos := !pos + chunk
  done;
  out

let priv_write_bytes t addr src =
  let len = Bytes.length src in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let offset = Vmm.Layout.page_offset a in
    let chunk = Int.min (len - !pos) (Vmm.Layout.page_size - offset) in
    let page = priv_page t a in
    Bytes.blit src !pos page.Vmm.Page.data offset chunk;
    pos := !pos + chunk
  done

let priv_read_u64 t addr =
  let b = priv_read_bytes t addr 8 in
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.get b i)
  done;
  !v

let priv_write_u64 t addr v =
  let b = Bytes.create 8 in
  for i = 0 to 7 do
    Bytes.set b i (Char.chr ((v lsr (8 * i)) land 0xFF))
  done;
  priv_write_bytes t addr b

let priv_read_string t addr len = Bytes.to_string (priv_read_bytes t addr len)

let charge t n = Cpu.charge t.cpu n

let cycles = total_cycles

(* --- Kernel interface (Garmr syscall-confusion surface) ------------------

   The [sys_*] entry points model the syscalls an in-process attacker can
   issue to confuse the kernel about pkey-tagged memory: retagging pages
   with pkey_mprotect, dropping protection with mprotect, or churning the
   key allocator.  With the filter disarmed they forward directly to the
   VMM, byte-for-byte what a direct [Vmm.Page_table] / [Vmm.Pkeys] call
   does.  With the filter armed, a request from a hart resident in U
   (PKRU cannot read the trusted key) is refused with EPERM, a sink tick
   and a flight dump.  Kernel-side work charges no simulated user cycles
   either way, so arming the filter never perturbs benign traces. *)

let set_syscall_filter t armed = t.syscall_filter <- armed
let syscall_filter t = t.syscall_filter

let sys_note t counter =
  match t.ctx.Telemetry.Ctx.sink with
  | None -> ()
  | Some sink -> Telemetry.Sink.incr sink counter

let syscall_check t name =
  if (not t.syscall_filter) || Mpk.Pkru.can_read t.cpu.Cpu.pkru Mpk.Pkey.trusted then Ok ()
  else begin
    sys_note t "machine.syscall_refused";
    Telemetry.Ctx.dump t.ctx ~reason:"syscall filter: pkey/page-table mutation refused from U"
      ~details:
        [
          ("syscall", Util.Json.String name);
          ("hart", Util.Json.Int t.cpu.Cpu.id);
          ("pkru", Util.Json.Int (Mpk.Pkru.to_int t.cpu.Cpu.pkru));
        ]
      ();
    Error
      (Printf.sprintf "EPERM: %s refused from untrusted residency (hart %d)" name t.cpu.Cpu.id)
  end

let sys_pkey_mprotect t ~base ~size pkey =
  match syscall_check t "pkey_mprotect" with
  | Error _ as e -> e
  | Ok () ->
    sys_note t "machine.sys_pkey_mprotect";
    Vmm.Page_table.pkey_mprotect t.page_table ~base ~size pkey

let sys_mprotect t ~base ~size prot =
  match syscall_check t "mprotect" with
  | Error _ as e -> e
  | Ok () ->
    sys_note t "machine.sys_mprotect";
    Vmm.Page_table.mprotect t.page_table ~base ~size prot

let sys_pkey_alloc t =
  match syscall_check t "pkey_alloc" with
  | Error msg -> Error msg
  | Ok () ->
    sys_note t "machine.sys_pkey_alloc";
    Vmm.Pkeys.pkey_alloc t.pkeys

let sys_pkey_free t key =
  match syscall_check t "pkey_free" with
  | Error _ as e -> e
  | Ok () ->
    sys_note t "machine.sys_pkey_free";
    Vmm.Pkeys.pkey_free t.pkeys key
