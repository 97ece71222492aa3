type t = {
  page_table : Vmm.Page_table.t;
  mutable cpu : Cpu.t;
  mutable cpus_rev : Cpu.t list;
  mutable ncpus : int;
  signals : Signals.t;
  pkeys : Vmm.Pkeys.t;
  tlb_enabled : bool;
  (* Garmr syscall filter: when [Some trusted], kernel-interface entry
     points ([sys_pkey_mprotect] & co) refuse pkey/page-table mutations
     from a hart whose PKRU cannot read the trusted key (i.e. from U
     residency).  [None] (the default) is fully permissive, and internal
     callers (pkalloc, test setup) go straight to [Vmm.Page_table] /
     [Vmm.Pkeys] anyway, so the filter is invisible when disabled. *)
  mutable syscall_filter : Mpk.Pkey.t option;
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
    syscall_filter = None;
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

(* --- The hot paths: no cross-module calls ---

   A dev build compiles every module [-opaque], so each call into another
   module is an unknown call through its module block (never inlined).
   The clock tick and the TLB hit below therefore read and write the
   other modules' records by field access and use the page geometry as
   values; anything that must call out sits in an out-of-line slow path.
   `make lint-hotpath` checks the compiled code. *)

let page_size = Vmm.Layout.page_size
let page_shift = Vmm.Layout.page_shift
let[@inline always] page_offset addr = addr land (page_size - 1)

let[@inline never] tick_hooks cpu n = Cpu.tick_hooks cpu n

(* [Cpu.charge], inlined: that function is the definition of a charge. *)
let[@inline always] charge_cpu (cpu : Cpu.t) n =
  cpu.Cpu.cycles <- cpu.Cpu.cycles + n;
  if cpu.Cpu.ctx.Telemetry.Ctx.hooked then tick_hooks cpu n

let check_page t access (page : Vmm.Page.t) =
  let prot_ok =
    match access with
    | Vmm.Fault.Read -> page.prot.Vmm.Prot.read
    | Vmm.Fault.Write -> page.prot.Vmm.Prot.write
    | Vmm.Fault.Execute -> page.prot.Vmm.Prot.execute
  in
  if not prot_ok then Some Vmm.Fault.Prot_violation
  else
    let key = page.pkey in
    let pkru = t.cpu.Cpu.pkru in
    let pkey_ok =
      match access with
      | Vmm.Fault.Read | Vmm.Fault.Execute -> Mpk.Pkru.can_read pkru key
      | Vmm.Fault.Write -> Mpk.Pkru.can_write pkru key
    in
    if pkey_ok then None else Some (Vmm.Fault.Pkey_violation key)

let probe t access addr =
  match Vmm.Page_table.lookup t.page_table addr with
  | None -> Some Vmm.Fault.Not_mapped
  | Some page -> check_page t access page

(* Fault-path telemetry: describe the fault, note the SIGSEGV dispatch, and
   time handler servicing (the cycles charged between dispatch and the
   handler's return, i.e. signal dispatch plus whatever the handler ran). *)
let note_fault t (fault : Vmm.Fault.t) =
  match t.ctx.Telemetry.Ctx.sink with
  | None -> ()
  | Some sink ->
    let ts = total_cycles t in
    let cpu = t.cpu.Cpu.id in
    (match fault.Vmm.Fault.kind with
    | Vmm.Fault.Pkey_violation key ->
      Telemetry.Sink.emit sink ~ts ~cpu
        (Telemetry.Event.Mpk_fault
           { addr = fault.Vmm.Fault.addr; pkey = Mpk.Pkey.to_int key })
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
  note_fault t fault;
  let before = total_cycles t in
  Signals.deliver_segv t.signals ~cpu:t.cpu fault;
  match t.ctx.Telemetry.Ctx.sink with
  | None -> ()
  | Some sink -> Telemetry.Sink.observe sink "fault_service_cycles" (total_cycles t - before)

(* Resolve one in-page access, delivering faults until it succeeds.  The
   retry bound breaks the livelock a buggy handler would otherwise cause
   (return-from-handler normally re-executes the faulting instruction);
   when it trips, the exception carries the kind of the last fault
   actually delivered, not a made-up one. *)
let rec attempt t access addr retries last_kind =
  if retries = 0 then raise (Vmm.Fault.Unhandled { Vmm.Fault.addr; access; kind = last_kind });
  let faults_before = Vmm.Page_table.demand_faults t.page_table in
  match Vmm.Page_table.lookup t.page_table addr with
  | None ->
    Cpu.charge t.cpu t.cpu.Cpu.cost.Cost.signal_dispatch;
    deliver_fault t { Vmm.Fault.addr; access; kind = Vmm.Fault.Not_mapped };
    attempt t access addr (retries - 1) Vmm.Fault.Not_mapped
  | Some page ->
    if Vmm.Page_table.demand_faults t.page_table > faults_before then begin
      Cpu.charge t.cpu t.cpu.Cpu.cost.Cost.soft_page_fault;
      match t.ctx.Telemetry.Ctx.sink with
      | None -> ()
      | Some sink ->
        Telemetry.Sink.emit sink ~ts:(total_cycles t) ~cpu:t.cpu.Cpu.id
          (Telemetry.Event.Page_fault { addr; kind = Telemetry.Event.Demand_paged })
    end;
    (match check_page t access page with
    | None -> page
    | Some kind ->
      Cpu.charge t.cpu t.cpu.Cpu.cost.Cost.signal_dispatch;
      deliver_fault t { Vmm.Fault.addr; access; kind };
      attempt t access addr (retries - 1) kind)

(* The seed kind is never observed: retries start positive, and every
   recursive call threads the kind of a delivered fault.  [attempt] is a
   top-level loop, so a resolve allocates no closure. *)
let resolve t access addr = attempt t access addr 64 Vmm.Fault.Prot_violation

(* The TLB hit probe of [translate].  The first probe under a new
   mapping or PKRU epoch counts one flush generation; then one hit or
   miss.  A hit needs the entry's tag, both epochs and the raw PKRU value
   to match and its mask to include [abit].  Indices are masked to
   [0, Tlb.size), so the unsafe reads stay in bounds. *)
let[@inline always] tlb_hit t (cpu : Cpu.t) abit page_number =
  let tlb = cpu.Cpu.tlb in
  let map_epoch = t.page_table.Vmm.Page_table.epoch in
  let pkru_epoch = cpu.Cpu.pkru_epoch in
  if map_epoch <> tlb.Tlb.seen_map_epoch then begin
    tlb.Tlb.seen_map_epoch <- map_epoch;
    tlb.Tlb.flushes <- tlb.Tlb.flushes + 1
  end;
  if pkru_epoch <> tlb.Tlb.seen_pkru_epoch then begin
    tlb.Tlb.seen_pkru_epoch <- pkru_epoch;
    tlb.Tlb.flushes <- tlb.Tlb.flushes + 1
  end;
  let i = page_number land Tlb.index_mask in
  if
    Array.unsafe_get tlb.Tlb.tags i = page_number
    && Array.unsafe_get tlb.Tlb.map_epochs i = map_epoch
    && Array.unsafe_get tlb.Tlb.pkru_epochs i = pkru_epoch
    && Array.unsafe_get tlb.Tlb.pkrus i = (cpu.Cpu.pkru :> int)
    && Array.unsafe_get tlb.Tlb.perms i land abit <> 0
  then begin
    tlb.Tlb.hits <- tlb.Tlb.hits + 1;
    true
  end
  else begin
    tlb.Tlb.misses <- tlb.Tlb.misses + 1;
    false
  end

let[@inline always] cached_page (cpu : Cpu.t) page_number =
  Array.unsafe_get cpu.Cpu.tlb.Tlb.pages (page_number land Tlb.index_mask)

(* The TLB miss path: resolve, then refill [tlb] with post-handler epochs
   (the final successful check ran under exactly that state). *)
let[@inline never] translate_miss t tlb access addr page_number =
  let page = resolve t access addr in
  Tlb.fill tlb ~map_epoch:t.page_table.Vmm.Page_table.epoch ~pkru_epoch:t.cpu.Cpu.pkru_epoch
    ~pkru:t.cpu.Cpu.pkru page_number page;
  page

(* The checked-access fast path.  A TLB hit proves the slow path would
   have succeeded without delivering any fault or materialising any page
   (the entry is current under the mapping epoch, the PKRU epoch and the
   raw PKRU value), so skipping [resolve] is architecturally invisible:
   no cycles or events differ.  Misses — including every access that
   would fault, single-step, or demand-page — take [translate_miss]. *)
let translate t access abit addr =
  if t.tlb_enabled then begin
    let page_number = addr lsr page_shift in
    let cpu = t.cpu in
    if tlb_hit t cpu abit page_number then cached_page cpu page_number
    else translate_miss t cpu.Cpu.tlb access addr page_number
  end
  else resolve t access addr

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

(* The common widths use the runtime's fixed-width accessors instead of a
   byte loop.  Results are bit-for-bit what the loop produced: values are
   accumulated modulo 2^63 (OCaml int), so the 8-byte case masks away the
   64th bit. *)
let rec read_le t addr len =
  let offset = page_offset addr in
  if offset + len <= page_size then begin
    let cpu = t.cpu in
    charge_cpu cpu cpu.Cpu.cost.Cost.load;
    let page = translate t Vmm.Fault.Read Tlb.read_bit addr in
    let data = page.Vmm.Page.data in
    let v =
      match len with
      | 1 -> Bytes.get_uint8 data offset
      | 2 -> Bytes.get_uint16_le data offset
      | 4 -> Int32.to_int (Bytes.get_int32_le data offset) land 0xFFFF_FFFF
      | 7 ->
        (* the low half of an f64 slot *)
        Int32.to_int (Bytes.get_int32_le data offset) land 0xFFFF_FFFF
        lor (Bytes.get_uint16_le data (offset + 4) lsl 32)
        lor (Bytes.get_uint8 data (offset + 6) lsl 48)
      | 8 -> Int64.to_int (Bytes.get_int64_le data offset)
      | _ ->
        let v = ref 0 in
        for i = len - 1 downto 0 do
          v := (!v lsl 8) lor Char.code (Bytes.get data (offset + i))
        done;
        !v
    in
    post_access t;
    v
  end
  else begin
    (* Page-straddling access: split at the boundary. *)
    let first_len = page_size - offset in
    let low = read_le t addr first_len in
    let high = read_le t (addr + first_len) (len - first_len) in
    (high lsl (8 * first_len)) lor low
  end

let rec write_le t addr len v =
  let offset = page_offset addr in
  if offset + len <= page_size then begin
    let cpu = t.cpu in
    charge_cpu cpu cpu.Cpu.cost.Cost.store;
    let page = translate t Vmm.Fault.Write Tlb.write_bit addr in
    let data = page.Vmm.Page.data in
    (match len with
    | 1 -> Bytes.set_uint8 data offset (v land 0xFF)
    | 2 -> Bytes.set_uint16_le data offset (v land 0xFFFF)
    | 4 -> Bytes.set_int32_le data offset (Int32.of_int v)
    | 7 ->
      Bytes.set_int32_le data offset (Int32.of_int v);
      Bytes.set_uint16_le data (offset + 4) ((v lsr 32) land 0xFFFF);
      Bytes.set_uint8 data (offset + 6) ((v lsr 48) land 0xFF)
    | 8 ->
      (* The loop stored (v lsr 56) land 0xFF as the top byte — bits 56-62
         of a 63-bit int, never a 64th bit — so mask the sign extension. *)
      Bytes.set_int64_le data offset (Int64.logand (Int64.of_int v) Int64.max_int)
    | _ ->
      for i = 0 to len - 1 do
        Bytes.set data (offset + i) (Char.chr ((v lsr (8 * i)) land 0xFF))
      done);
    post_access t
  end
  else begin
    let first_len = page_size - offset in
    write_le t addr first_len v;
    write_le t (addr + first_len) (len - first_len) (v asr (8 * first_len))
  end

let read_u8 t addr = read_le t addr 1
let read_u16 t addr = read_le t addr 2
let read_u32 t addr = read_le t addr 4
let read_u64 t addr = read_le t addr 8
let write_u8 t addr v = write_le t addr 1 v
let write_u16 t addr v = write_le t addr 2 v
let write_u32 t addr v = write_le t addr 4 v
let write_u64 t addr v = write_le t addr 8 v

(* Floats are stored via their bit pattern.  OCaml ints hold 63 bits, so we
   move the top byte separately. *)
let read_f64 t addr =
  let low = read_le t addr 7 in
  let high = read_le t (addr + 7) 1 in
  Int64.float_of_bits Int64.(logor (of_int low) (shift_left (of_int high) 56))

let write_f64 t addr f =
  let bits = Int64.bits_of_float f in
  write_le t addr 7 Int64.(to_int (logand bits 0xFF_FFFF_FFFF_FFFFL));
  write_le t (addr + 7) 1 Int64.(to_int (logand (shift_right_logical bits 56) 0xFFL))

let read_bytes t addr len =
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let offset = page_offset a in
    let chunk = min (len - !pos) (page_size - offset) in
    charge_cpu t.cpu (t.cpu.Cpu.cost.Cost.load * ((chunk + 7) / 8));
    let page = translate t Vmm.Fault.Read Tlb.read_bit a in
    Bytes.blit page.Vmm.Page.data offset out !pos chunk;
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
    let offset = page_offset a in
    let chunk = min (len - !pos) (page_size - offset) in
    charge_cpu t.cpu (t.cpu.Cpu.cost.Cost.load * ((chunk + 7) / 8));
    let page = translate t Vmm.Fault.Read Tlb.read_bit a in
    Buffer.add_subbytes buf page.Vmm.Page.data offset chunk;
    post_access t;
    pos := !pos + chunk
  done

(* The string is blitted straight into the page: no host copy first. *)
let write_string t addr src =
  let len = String.length src in
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let offset = page_offset a in
    let chunk = min (len - !pos) (page_size - offset) in
    charge_cpu t.cpu (t.cpu.Cpu.cost.Cost.store * ((chunk + 7) / 8));
    let page = translate t Vmm.Fault.Write Tlb.write_bit a in
    Bytes.blit_string src !pos page.Vmm.Page.data offset chunk;
    post_access t;
    pos := !pos + chunk
  done

let write_bytes t addr src = write_string t addr (Bytes.unsafe_to_string src)

let memset t addr byte len =
  let pos = ref 0 in
  while !pos < len do
    let a = addr + !pos in
    let offset = page_offset a in
    let chunk = min (len - !pos) (page_size - offset) in
    charge_cpu t.cpu (t.cpu.Cpu.cost.Cost.store * ((chunk + 7) / 8));
    let page = translate t Vmm.Fault.Write Tlb.write_bit a in
    Bytes.fill page.Vmm.Page.data offset chunk byte;
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
    let offset = page_offset a in
    let chunk = min (len - !pos) (page_size - offset) in
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
    let offset = page_offset a in
    let chunk = min (len - !pos) (page_size - offset) in
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

let charge t n = charge_cpu t.cpu n

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

let set_syscall_filter t key = t.syscall_filter <- key
let syscall_filter t = t.syscall_filter

let sys_note t counter =
  match t.ctx.Telemetry.Ctx.sink with
  | None -> ()
  | Some sink -> Telemetry.Sink.incr sink counter

let syscall_check t name =
  match t.syscall_filter with
  | None -> Ok ()
  | Some trusted ->
    if Mpk.Pkru.can_read t.cpu.Cpu.pkru trusted then Ok ()
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
