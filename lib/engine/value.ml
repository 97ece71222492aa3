type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of str
  | Arr of arr
  | Obj of obj
  | Fun of int
  | Host of string
  | Handle of int

and str = {
  s_addr : int;
  s_len : int;
  s_owned : bool;
}

and arr = {
  mutable a_buf : int;
  mutable a_cap : int;
  mutable a_len : int;
}

and obj = {
  o_id : int;
  o_addr : int;
  mutable o_shape : shape;
  mutable o_slots : t array;
}

(* Hidden classes: objects built by adding the same properties in the same
   order share one shape, so a property access is (shape, slot index)
   instead of a per-object string map — the structure inline caches key
   on.  Shapes form a transition tree from the per-heap root; adding a
   property either follows a recorded transition or mints a new shape. *)
and shape = {
  sh_id : int;
  sh_fields : (string, int) Hashtbl.t; (* name -> slot index *)
  sh_names : string array; (* slot index -> name, insertion order *)
  sh_count : int;
  mutable sh_transitions : (string * shape) list;
}

type heap = {
  env : Pkru_safe.Env.t;
  machine : Sim.Machine.t;
  mutable boxed : t array; (* host-side table for NaN-boxed references *)
  mutable nboxed : int;
  mutable objects : int;
  mutable shapes : int;
  root_shape : shape;
  owned : unit Util.Int_table.t; (* engine-owned machine buffers, by address *)
}

let create_heap env =
  {
    env;
    machine = Pkru_safe.Env.machine env;
    boxed = Array.make 64 Null;
    nboxed = 0;
    objects = 0;
    shapes = 1;
    root_shape =
      {
        sh_id = 0;
        sh_fields = Hashtbl.create 1;
        sh_names = [||];
        sh_count = 0;
        sh_transitions = [];
      };
    owned = Util.Int_table.create ~dummy:() 64;
  }

let env h = h.env

let malloc h size =
  let addr = Pkru_safe.Env.malloc_untrusted h.env size in
  Util.Int_table.replace h.owned addr ();
  addr

(* --- NaN boxing ---

   A slot is a 64-bit pattern moved as two checked accesses, the low 7
   bytes ([Sim.Machine.read_u56]) and the top byte ([read_u8]), so all 64
   bits survive OCaml's 63-bit ints without passing through a float.
   Numbers are their own IEEE bits, canonicalised so a computed NaN cannot
   collide with a box.  The top 16 bits 0xFFF1 tag a table index for
   reference values, 0xFFF2 the three immediates: in the halves, the top
   byte 0xFF and bits 48-55 of the low half the tag's low byte. *)

let tag_ref = 0xF1
let tag_imm = 0xF2
let payload_mask = 0xFFFF_FFFF_FFFF

let box_ref h v =
  if h.nboxed >= Array.length h.boxed then begin
    let bigger = Array.make (2 * Array.length h.boxed) Null in
    Array.blit h.boxed 0 bigger 0 h.nboxed;
    h.boxed <- bigger
  end;
  h.boxed.(h.nboxed) <- v;
  h.nboxed <- h.nboxed + 1;
  h.nboxed - 1

let[@inline] write_halves h addr low high =
  Sim.Machine.write_u56 h.machine addr low;
  Sim.Machine.write_u8 h.machine (addr + 7) high

let write_slot h addr v =
  match v with
  | Num f ->
    if Float.is_nan f then write_halves h addr 0xF8_0000_0000_0000 0x7F (* 0x7FF8000000000000 *)
    else
      let bits = Int64.bits_of_float f in
      write_halves h addr
        (Int64.to_int bits land 0xFF_FFFF_FFFF_FFFF)
        (Int64.to_int (Int64.shift_right_logical bits 56))
  | Null -> write_halves h addr (tag_imm lsl 48) 0xFF
  | Bool false -> write_halves h addr ((tag_imm lsl 48) lor 1) 0xFF
  | Bool true -> write_halves h addr ((tag_imm lsl 48) lor 2) 0xFF
  | Str _ | Arr _ | Obj _ | Fun _ | Host _ | Handle _ ->
    write_halves h addr ((tag_ref lsl 48) lor box_ref h v) 0xFF

let read_slot h addr =
  let low = Sim.Machine.read_u56 h.machine addr in
  let high = Sim.Machine.read_u8 h.machine (addr + 7) in
  let tag = low lsr 48 in
  if high = 0xFF && tag = tag_ref then h.boxed.(low land payload_mask)
  else if high = 0xFF && tag = tag_imm then
    match low land payload_mask with
    | 0 -> Null
    | 1 -> Bool false
    | _ -> Bool true
  else Num (Int64.float_of_bits (Int64.logor (Int64.of_int low) (Int64.shift_left (Int64.of_int high) 56)))

(* --- Strings --- *)

let str_of_string h s =
  let len = String.length s in
  let addr = malloc h (Int.max len 1) in
  if len > 0 then Sim.Machine.write_string h.machine addr s;
  Str { s_addr = addr; s_len = len; s_owned = true }

let string_of_str h (s : str) =
  if s.s_len = 0 then ""
  else Bytes.to_string (Sim.Machine.read_bytes h.machine s.s_addr s.s_len)

let of_foreign_buffer ~addr ~len = Str { s_addr = addr; s_len = len; s_owned = false }

let str_get h (s : str) i =
  if i < 0 || i >= s.s_len then invalid_arg "Value.str_get: index out of range";
  Sim.Machine.read_u8 h.machine (s.s_addr + i)

let str_concat h (a : str) (b : str) =
  let len = a.s_len + b.s_len in
  let addr = malloc h (Int.max len 1) in
  if a.s_len > 0 then
    Sim.Machine.write_bytes h.machine addr (Sim.Machine.read_bytes h.machine a.s_addr a.s_len);
  if b.s_len > 0 then
    Sim.Machine.write_bytes h.machine (addr + a.s_len)
      (Sim.Machine.read_bytes h.machine b.s_addr b.s_len);
  Str { s_addr = addr; s_len = len; s_owned = true }

let str_sub h (s : str) start len =
  let start = Int.max 0 start in
  let len = Int.max 0 (Int.min len (s.s_len - start)) in
  let addr = malloc h (Int.max len 1) in
  if len > 0 then
    Sim.Machine.write_bytes h.machine addr
      (Sim.Machine.read_bytes h.machine (s.s_addr + start) len);
  Str { s_addr = addr; s_len = len; s_owned = true }

let str_equal h (a : str) (b : str) =
  a.s_len = b.s_len
  && (a.s_addr = b.s_addr
     ||
     let rec cmp i =
       i >= a.s_len
       || Sim.Machine.read_u8 h.machine (a.s_addr + i) = Sim.Machine.read_u8 h.machine (b.s_addr + i)
          && cmp (i + 1)
     in
     cmp 0)

let str_index_of h (s : str) (needle : str) =
  if needle.s_len = 0 then 0
  else begin
    let limit = s.s_len - needle.s_len in
    let rec matches_at i j =
      j >= needle.s_len
      || Sim.Machine.read_u8 h.machine (s.s_addr + i + j)
         = Sim.Machine.read_u8 h.machine (needle.s_addr + j)
         && matches_at i (j + 1)
    in
    let rec scan i = if i > limit then -1 else if matches_at i 0 then i else scan (i + 1) in
    scan 0
  end

(* --- Arrays --- *)

let arr_make h n =
  let cap = Int.max n 4 in
  let buf = malloc h (cap * 8) in
  let a = { a_buf = buf; a_cap = cap; a_len = n } in
  for i = 0 to n - 1 do
    write_slot h (buf + (8 * i)) Null
  done;
  Arr a

let check_index (a : arr) i op =
  if i < 0 || i >= a.a_len then
    invalid_arg (Printf.sprintf "Value.%s: index %d out of range (len %d)" op i a.a_len)

let arr_get h (a : arr) i =
  check_index a i "arr_get";
  read_slot h (a.a_buf + (8 * i))

let arr_set h (a : arr) i v =
  check_index a i "arr_set";
  write_slot h (a.a_buf + (8 * i)) v

let grow h (a : arr) =
  let cap = a.a_cap * 2 in
  (* U's realloc: stays in MU and copies the slots; keep the ownership
     registry pointing at the (possibly moved) buffer. *)
  Util.Int_table.remove h.owned a.a_buf;
  a.a_buf <- Pkru_safe.Env.realloc h.env a.a_buf (cap * 8);
  Util.Int_table.replace h.owned a.a_buf ();
  a.a_cap <- cap

let arr_push h (a : arr) v =
  if a.a_len = a.a_cap then grow h a;
  a.a_len <- a.a_len + 1;
  write_slot h (a.a_buf + (8 * (a.a_len - 1))) v

let arr_pop h (a : arr) =
  if a.a_len = 0 then Null
  else begin
    let v = read_slot h (a.a_buf + (8 * (a.a_len - 1))) in
    a.a_len <- a.a_len - 1;
    v
  end

(* --- Objects --- *)

let obj_make h =
  h.objects <- h.objects + 1;
  let addr = malloc h 16 in
  Sim.Machine.write_u64 h.machine addr h.objects;
  Obj { o_id = h.objects; o_addr = addr; o_shape = h.root_shape; o_slots = [||] }

(* Property maps live host-side; charge a representative cost per access
   (hash + probe) so object-heavy workloads still cost cycles. *)
let prop_cost = 6

let shape_add h (sh : shape) name =
  match List.assoc_opt name sh.sh_transitions with
  | Some next -> next
  | None ->
    let fields = Hashtbl.copy sh.sh_fields in
    Hashtbl.replace fields name sh.sh_count;
    let names = Array.make (sh.sh_count + 1) name in
    Array.blit sh.sh_names 0 names 0 sh.sh_count;
    let next =
      {
        sh_id = h.shapes;
        sh_fields = fields;
        sh_names = names;
        sh_count = sh.sh_count + 1;
        sh_transitions = [];
      }
    in
    h.shapes <- h.shapes + 1;
    sh.sh_transitions <- (name, next) :: sh.sh_transitions;
    next

let obj_get h (o : obj) name =
  Sim.Machine.charge h.machine prop_cost;
  match Hashtbl.find_opt o.o_shape.sh_fields name with
  | Some i -> o.o_slots.(i)
  | None -> Null

let obj_set h (o : obj) name v =
  Sim.Machine.charge h.machine prop_cost;
  match Hashtbl.find_opt o.o_shape.sh_fields name with
  | Some i -> o.o_slots.(i) <- v
  | None ->
    let next = shape_add h o.o_shape name in
    let i = next.sh_count - 1 in
    if i >= Array.length o.o_slots then begin
      let bigger = Array.make (Int.max 4 (2 * Array.length o.o_slots)) Null in
      Array.blit o.o_slots 0 bigger 0 (Array.length o.o_slots);
      o.o_slots <- bigger
    end;
    o.o_slots.(i) <- v;
    o.o_shape <- next

(* {2 Shape/slot access for inline caches}

   An IC that has validated the receiver's shape may address the slot
   directly; the charged variants charge exactly what the name-keyed path
   charges, so a cache hit is architecturally invisible. *)

let obj_shape_id (o : obj) = o.o_shape.sh_id
let obj_slot_index (o : obj) name = Hashtbl.find_opt o.o_shape.sh_fields name

let obj_get_slot h (o : obj) i =
  Sim.Machine.charge h.machine prop_cost;
  o.o_slots.(i)

let obj_set_slot h (o : obj) i v =
  Sim.Machine.charge h.machine prop_cost;
  o.o_slots.(i) <- v

let obj_iter f (o : obj) =
  let names = o.o_shape.sh_names in
  for i = 0 to o.o_shape.sh_count - 1 do
    f names.(i) o.o_slots.(i)
  done

(* --- Misc --- *)

let truthy = function
  | Null -> false
  | Bool b -> b
  | Num f -> f <> 0.0 && not (Float.is_nan f)
  | Str s -> s.s_len > 0
  | Arr _ | Obj _ | Fun _ | Host _ | Handle _ -> true

let type_name = function
  | Null -> "null"
  | Bool _ -> "boolean"
  | Num _ -> "number"
  | Str _ -> "string"
  | Arr _ -> "array"
  | Obj _ -> "object"
  | Fun _ | Host _ -> "function"
  | Handle _ -> "handle"

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let rec to_display_string h = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num f -> number_to_string f
  | Str s -> string_of_str h s
  | Arr a ->
    let parts = List.init a.a_len (fun i -> to_display_string h (arr_get h a i)) in
    "[" ^ String.concat "," parts ^ "]"
  | Obj o -> Printf.sprintf "[object #%d]" o.o_id
  | Fun _ -> "[function]"
  | Host name -> Printf.sprintf "[host %s]" name
  | Handle n -> Printf.sprintf "[handle %d]" n

let equals h a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Num x, Num y -> x = y
  | Str x, Str y -> str_equal h x y
  | Arr x, Arr y -> x == y
  | Obj x, Obj y -> x == y
  | Fun x, Fun y -> x = y
  | Host x, Host y -> x = y
  | Handle x, Handle y -> x = y
  | _ -> false

let owned_count h = Util.Int_table.length h.owned

(* Frees in ascending address order, so the allocator sees the same
   sequence of frees whatever the table's slot order. *)
let sweep h ~live =
  Array.fold_left
    (fun freed addr ->
      if live addr then freed
      else begin
        Util.Int_table.remove h.owned addr;
        Pkru_safe.Env.dealloc h.env addr;
        freed + 1
      end)
    0
    (Util.Int_table.sorted_keys h.owned)
