(* Node record layout (64 bytes, site Sites.node_record):

     0  node id        (u32)
     4  tag/name code  (u32; text nodes use code 0)
     8  parent         (u64 address, 0 = none)
     16 first child
     24 last child
     32 next sibling
     40 text payload address (text nodes)
     48 text length
     56 attribute list head

   Attribute record layout (32 bytes, site Sites.attr_record):

     0  name code
     8  value address
     16 value length
     24 next attribute

   The host side keeps indexes over those records, never a second copy
   of the tree: handle -> address ([addr_of]), address -> handle (one
   64-slot array per page that holds node records: two live 64-byte
   records never start in the same 64-byte window), and, for the
   hierarchy checks only, each node's parent handle and whether it is a
   text node.  Walks follow the sibling chains in simulated memory by
   record address, and resolve a handle only for a node they hand back. *)

type node = int
type record = int

type t = {
  env : Pkru_safe.Env.t;
  machine : Sim.Machine.t;
  mutable tag_names : string array; (* code -> name *)
  mutable name_slots : int array; (* open addressing over [tag_names]: code + 1, 0 = free *)
  mutable ntags : int;
  mutable addr_of : int array; (* node id -> record address; 0 = no live node *)
  mutable parent_of : int array; (* node id -> parent id; 0 = none *)
  mutable text_node : Bytes.t; (* node id -> '\001' for a text node *)
  pages : int array Util.Int_table.t; (* page number -> ids by 64-byte window *)
  mutable last_page : int;
  mutable last_slots : int array; (* [pages]'s entry for [last_page] *)
  mutable stack : int array; (* the walk stack: sibling chains being visited *)
  mutable sp : int;
  mutable next_id : int;
  mutable live_nodes : int;
  root : node;
}

let node_size = 64
let attr_size = 32
let text_code = 0

let off_id = 0
let off_tag = 4
let off_parent = 8
let off_first = 16
let off_last = 24
let off_next = 32
let off_text = 40
let off_text_len = 48
let off_attrs = 56

let read t a off = Sim.Machine.read_u64 t.machine (a + off)
let write t a off v = Sim.Machine.write_u64 t.machine (a + off) v
let read32 t a off = Sim.Machine.read_u32 t.machine (a + off)
let write32 t a off v = Sim.Machine.write_u32 t.machine (a + off) v

(* --- Names: tag and attribute names share one monotonic intern table --- *)

(* FNV-1a over the name's bytes (the offset basis cut to fit an OCaml
   int). *)
let hash_name name =
  let h = ref 0x0bf29ce484222325 in
  for i = 0 to String.length name - 1 do
    h := (!h lxor Char.code (String.unsafe_get name i)) * 0x100000001b3
  done;
  !h land max_int

let rec probe_name t name i =
  let slots = t.name_slots in
  let c = Array.unsafe_get slots i in
  if c = 0 then -1
  else if String.equal (Array.unsafe_get t.tag_names (c - 1)) name then c - 1
  else probe_name t name ((i + 1) land (Array.length slots - 1))

(* The code of [name], or -1. *)
let find_name t name = probe_name t name (hash_name name land (Array.length t.name_slots - 1))

let place_name slots name code =
  let mask = Array.length slots - 1 in
  let i = ref (hash_name name land mask) in
  while Array.unsafe_get slots !i <> 0 do
    i := (!i + 1) land mask
  done;
  Array.unsafe_set slots !i (code + 1)

let[@inline never] add_name t name =
  let code = t.ntags in
  if code >= Array.length t.tag_names then begin
    let bigger = Array.make (2 * Array.length t.tag_names) "" in
    Array.blit t.tag_names 0 bigger 0 code;
    t.tag_names <- bigger
  end;
  t.tag_names.(code) <- name;
  t.ntags <- code + 1;
  if 2 * t.ntags > Array.length t.name_slots then begin
    let slots = Array.make (2 * Array.length t.name_slots) 0 in
    for c = 0 to code - 1 do
      place_name slots t.tag_names.(c) c
    done;
    t.name_slots <- slots
  end;
  place_name t.name_slots name code;
  code

let intern t name =
  let code = find_name t name in
  if code >= 0 then code else add_name t name

(* --- Handles --- *)

let[@inline never] unknown_node node = invalid_arg (Printf.sprintf "Dom: unknown node handle %d" node)

(* Ids are issued densely from 1, so the handle is the index; id 0,
   negative and never-issued ids fall outside, freed ones read 0. *)
let addr t node =
  if node > 0 && node < Array.length t.addr_of then begin
    let a = Array.unsafe_get t.addr_of node in
    if a = 0 then unknown_node node else a
  end
  else unknown_node node

let record = addr

let page_shift = Vmm.Layout.page_shift
let page_mask = Vmm.Layout.page_size - 1

(* The slot array of page [pn], or the empty table dummy. *)
let[@inline never] find_page t pn =
  let slots = Util.Int_table.get t.pages pn in
  if Array.length slots > 0 then begin
    t.last_page <- pn;
    t.last_slots <- slots
  end;
  slots

let[@inline never] add_page t pn =
  let slots = Array.make (Vmm.Layout.page_size / node_size) 0 in
  Util.Int_table.replace t.pages pn slots;
  t.last_page <- pn;
  t.last_slots <- slots;
  slots

let set_slot t a id =
  let pn = a lsr page_shift in
  let slots =
    if pn = t.last_page then t.last_slots
    else
      let slots = find_page t pn in
      if Array.length slots > 0 then slots else add_page t pn
  in
  Array.unsafe_set slots ((a land page_mask) lsr 6) id

(* The live node whose record is at [a], or 0. *)
let node_at t a =
  let pn = a lsr page_shift in
  let slots = if pn = t.last_page then t.last_slots else find_page t pn in
  if Array.length slots = 0 then 0
  else
    let id = Array.unsafe_get slots ((a land page_mask) lsr 6) in
    if id <> 0 && Array.unsafe_get t.addr_of id = a then id else 0

let node_at_exn t a =
  let id = node_at t a in
  if id = 0 then raise Not_found else id

let[@inline never] grow_handles t id =
  let n = 2 * id in
  let grow a = Array.append a (Array.make (n - Array.length a) 0) in
  t.addr_of <- grow t.addr_of;
  t.parent_of <- grow t.parent_of;
  let text_node = Bytes.make n '\000' in
  Bytes.blit t.text_node 0 text_node 0 (Bytes.length t.text_node);
  t.text_node <- text_node

let alloc_node t ~code =
  let a = Pkru_safe.Env.alloc t.env ~site:Sites.node_record node_size in
  Sim.Machine.memset t.machine a '\000' node_size;
  let id = t.next_id in
  t.next_id <- id + 1;
  write32 t a off_id id;
  write32 t a off_tag code;
  if id >= Array.length t.addr_of then grow_handles t id;
  Array.unsafe_set t.addr_of id a;
  if code = text_code then Bytes.unsafe_set t.text_node id '\001';
  set_slot t a id;
  t.live_nodes <- t.live_nodes + 1;
  id

let create env =
  let t =
    {
      env;
      machine = Pkru_safe.Env.machine env;
      tag_names = Array.make 32 "";
      name_slots = Array.make 64 0;
      ntags = 0;
      addr_of = Array.make 64 0;
      parent_of = Array.make 64 0;
      text_node = Bytes.make 64 '\000';
      pages = Util.Int_table.create ~dummy:[||] 16;
      last_page = -1;
      last_slots = [||];
      stack = Array.make 64 0;
      sp = 0;
      next_id = 1;
      live_nodes = 0;
      root = 1;
    }
  in
  ignore (intern t "#text"); (* claims code 0 *)
  let root_code = intern t "html" in
  let root = alloc_node t ~code:root_code in
  assert (root = t.root);
  t

let env t = t.env
let root t = t.root
let node_count t = t.live_nodes

(* --- The sibling iteration primitive --- *)

let[@inline never] grow_stack t =
  let bigger = Array.make (2 * Array.length t.stack) 0 in
  Array.blit t.stack 0 bigger 0 t.sp;
  t.stack <- bigger

(* Pushes [a]'s sibling chain onto the walk stack: the first-child link,
   then each next-sibling link, read in that order. *)
let push_chain t a =
  let c = ref (read t a off_first) in
  while !c <> 0 do
    if t.sp = Array.length t.stack then grow_stack t;
    Array.unsafe_set t.stack t.sp !c;
    t.sp <- t.sp + 1;
    c := read t !c off_next
  done

(* The chain occupies [lo, hi) of the stack while [f] runs on it; a
   nested fold pushes above [hi] and pops back before returning, and an
   exception pops the span too. *)
let fold_children t a f ctx acc =
  let lo = t.sp in
  match
    push_chain t a;
    let acc = ref acc in
    for i = lo to t.sp - 1 do
      acc := f t ctx !acc (Array.unsafe_get t.stack i)
    done;
    !acc
  with
  | acc ->
    t.sp <- lo;
    acc
  | exception e ->
    t.sp <- lo;
    raise e

(* --- Construction --- *)

let create_element t tag = alloc_node t ~code:(intern t tag)

let write_text t a text =
  let len = String.length text in
  let buf = Pkru_safe.Env.alloc t.env ~site:Sites.text_buffer (max len 1) in
  if len > 0 then Sim.Machine.write_string t.machine buf text;
  write t a off_text buf;
  write t a off_text_len len

let create_text t text =
  let id = alloc_node t ~code:text_code in
  write_text t (Array.unsafe_get t.addr_of id) text;
  id

let tag_code_at t a = read32 t a off_tag
let tag_name_at t a = t.tag_names.(tag_code_at t a)
let tag_name t node = tag_name_at t (addr t node)

(* Host-side intern-table introspection (no machine reads, no charges):
   compiled selectors resolve names to codes once and revalidate against
   [tag_count], which only ever grows. *)
let tag_count t = t.ntags

let find_code t name =
  let code = find_name t name in
  if code < 0 then None else Some code

let is_text_at t a = tag_code_at t a = text_code

let parent_at t a =
  let p = read t a off_parent in
  if p = 0 || node_at t p = 0 then 0 else p

let parent t node =
  let p = parent_at t (addr t node) in
  if p = 0 then None else Some (node_at t p)

(* The checks no read of the records can make: a text node has no
   children, and no node becomes its own ancestor.  Host state only, so
   a rejected call costs the reads of the checks before it, no more. *)
let[@inline never] bad_hierarchy fn why = invalid_arg (fn ^ ": " ^ why)

let check_hierarchy t fn ~parent ~child =
  if Bytes.unsafe_get t.text_node parent <> '\000' then
    bad_hierarchy fn "a text node cannot have children";
  let p = ref parent in
  while !p <> 0 do
    if !p = child then bad_hierarchy fn "the child is an ancestor of the parent";
    p := Array.unsafe_get t.parent_of !p
  done

let append_child t ~parent ~child =
  let pa = addr t parent in
  let ca = addr t child in
  if read t ca off_parent <> 0 then invalid_arg "Dom.append_child: child already attached";
  if parent = child then invalid_arg "Dom.append_child: cannot append to self";
  check_hierarchy t "Dom.append_child" ~parent ~child;
  Array.unsafe_set t.parent_of child parent;
  write t ca off_parent pa;
  let last = read t pa off_last in
  if last = 0 then begin
    write t pa off_first ca;
    write t pa off_last ca
  end
  else begin
    write t last off_next ca;
    write t pa off_last ca
  end

let children t node =
  List.rev (fold_children t (addr t node) (fun t () acc a -> node_at_exn t a :: acc) () [])

let child_count t node = fold_children t (addr t node) (fun _ () n _ -> n + 1) () 0

(* --- Attributes --- *)

let rec find_attr_from t code r =
  if r = 0 then 0 else if read t r 0 = code then r else find_attr_from t code (read t r 24)

(* The attribute record of [a] named [code], or 0. *)
let find_attr t a code = find_attr_from t code (read t a off_attrs)

let alloc_value t value =
  let len = String.length value in
  let buf = Pkru_safe.Env.alloc t.env ~site:Sites.attr_value (max len 1) in
  if len > 0 then Sim.Machine.write_string t.machine buf value;
  buf

let set_attribute_at t a code value =
  let len = String.length value in
  let r = find_attr t a code in
  if r <> 0 then begin
    (* Replace the value buffer in place. *)
    let old_buf = read t r 8 in
    Pkru_safe.Env.dealloc t.env old_buf;
    let buf = alloc_value t value in
    write t r 8 buf;
    write t r 16 len
  end
  else begin
    let r = Pkru_safe.Env.alloc t.env ~site:Sites.attr_record attr_size in
    let buf = alloc_value t value in
    write t r 0 code;
    write t r 8 buf;
    write t r 16 len;
    write t r 24 (read t a off_attrs);
    write t a off_attrs r
  end

(* The handle is checked before the name is interned: a failed call
   leaves the intern table, and so every later name lookup, as it was. *)
let set_attribute t node name value =
  let a = addr t node in
  set_attribute_at t a (intern t name) value

let read_string t buf len =
  if len = 0 then "" else Bytes.unsafe_to_string (Sim.Machine.read_bytes t.machine buf len)

let attribute_by_code_at t a code =
  let r = find_attr t a code in
  if r = 0 then None
  else
    let buf = read t r 8 in
    let len = read t r 16 in
    Some (read_string t buf len)

let attribute_by_code t node code = attribute_by_code_at t (addr t node) code

(* An unknown name matches nothing, with no read (and no handle check). *)
let get_attribute_at t a name =
  match find_code t name with
  | None -> None
  | Some code -> attribute_by_code_at t a code

let get_attribute t node name =
  match find_code t name with
  | None -> None
  | Some code -> attribute_by_code t node code

(* --- Text --- *)

let set_text t node text =
  let a = addr t node in
  if not (is_text_at t a) then invalid_arg "Dom.set_text: not a text node";
  let old = read t a off_text in
  if old <> 0 then Pkru_safe.Env.dealloc t.env old;
  write_text t a text

let text_at t a =
  if not (is_text_at t a) then invalid_arg "Dom.text_of: not a text node";
  let buf = read t a off_text in
  let len = read t a off_text_len in
  read_string t buf len

(* [text_at], appended to [out]. *)
let add_text t a out =
  if not (is_text_at t a) then invalid_arg "Dom.text_of: not a text node";
  let buf = read t a off_text in
  let len = read t a off_text_len in
  if len > 0 then Sim.Machine.read_to_buffer t.machine buf len out

let rec text_visit t out () a =
  if is_text_at t a then add_text t a out else fold_children t a text_visit out ()

let text_content t node =
  let out = Buffer.create 64 in
  text_visit t out () (addr t node);
  Buffer.contents out

(* --- Queries and serialisation --- *)

let rec query_visit t code acc a =
  let acc = if tag_code_at t a = code then node_at_exn t a :: acc else acc in
  fold_children t a query_visit code acc

let query_tag t tag =
  match find_code t tag with
  | None -> []
  | Some code -> List.rev (query_visit t code [] (addr t t.root))

let rec serialize_visit t out () a =
  if is_text_at t a then add_text t a out
  else begin
    let tag = tag_name_at t a in
    Buffer.add_char out '<';
    Buffer.add_string out tag;
    (* Attributes, in stored (reverse-insertion) order. *)
    let r = ref (read t a off_attrs) in
    while !r <> 0 do
      let code = read t !r 0 in
      let vbuf = read t !r 8 in
      let vlen = read t !r 16 in
      Buffer.add_char out ' ';
      Buffer.add_string out t.tag_names.(code);
      Buffer.add_string out "=\"";
      if vlen > 0 then Sim.Machine.read_to_buffer t.machine vbuf vlen out;
      Buffer.add_char out '"';
      r := read t !r 24
    done;
    Buffer.add_char out '>';
    fold_children t a serialize_visit out ();
    Buffer.add_string out "</";
    Buffer.add_string out tag;
    Buffer.add_char out '>'
  end

let serialize t node =
  let out = Buffer.create 256 in
  fold_children t (addr t node) serialize_visit out ();
  Buffer.contents out

(* --- Subtree removal --- *)

let rec free_visit t () () a =
  fold_children t a free_visit () ();
  let text = read t a off_text in
  if text <> 0 then Pkru_safe.Env.dealloc t.env text;
  let r = ref (read t a off_attrs) in
  while !r <> 0 do
    let next = read t !r 24 in
    Pkru_safe.Env.dealloc t.env (read t !r 8);
    Pkru_safe.Env.dealloc t.env !r;
    r := next
  done;
  let node = node_at_exn t a in
  t.addr_of.(node) <- 0;
  t.parent_of.(node) <- 0;
  set_slot t a 0;
  t.live_nodes <- t.live_nodes - 1;
  Pkru_safe.Env.dealloc t.env a

let remove_children t node =
  let a = addr t node in
  fold_children t a free_visit () ();
  write t a off_first 0;
  write t a off_last 0

(* The sibling before [target] in the chain from [prev]. *)
let rec find_prev t fn prev target =
  if prev = 0 then invalid_arg (fn ^ ": corrupted sibling chain")
  else if read t prev off_next = target then prev
  else find_prev t fn (read t prev off_next) target

let detach t ~parent ~child =
  let pa = addr t parent in
  let ca = addr t child in
  if read t ca off_parent <> pa then invalid_arg "Dom.detach: not a child of that parent";
  (* Unlink from the sibling chain. *)
  let first = read t pa off_first in
  if first = ca then begin
    write t pa off_first (read t ca off_next);
    if read t pa off_last = ca then write t pa off_last 0
  end
  else begin
    let prev = find_prev t "Dom.detach" first ca in
    write t prev off_next (read t ca off_next);
    if read t pa off_last = ca then write t pa off_last prev
  end;
  write t ca off_parent 0;
  write t ca off_next 0;
  t.parent_of.(child) <- 0

let remove_child t ~parent ~child =
  detach t ~parent ~child;
  free_visit t () () (addr t child)

let insert_before t ~parent ~child ~before =
  let pa = addr t parent in
  let ca = addr t child in
  let ba = addr t before in
  if read t ca off_parent <> 0 then invalid_arg "Dom.insert_before: child already attached";
  if read t ba off_parent <> pa then invalid_arg "Dom.insert_before: anchor not a child";
  check_hierarchy t "Dom.insert_before" ~parent ~child;
  t.parent_of.(child) <- parent;
  write t ca off_parent pa;
  write t ca off_next ba;
  let first = read t pa off_first in
  if first = ba then write t pa off_first ca
  else write t (find_prev t "Dom.insert_before" first ba) off_next ca

(* [a] when its [code] attribute is [wanted]: the value bytes are read
   only when the lengths agree. *)
let id_matches t a code wanted =
  let r = find_attr t a code in
  r <> 0
  &&
  let buf = read t r 8 in
  let len = read t r 16 in
  len = String.length wanted
  && (len = 0 || Bytes.unsafe_to_string (Sim.Machine.read_bytes t.machine buf len) = wanted)

(* Document order; once [found] is set, the remaining siblings are
   skipped without a read. *)
let rec by_id_visit t ((code, wanted) as key) found a =
  if found <> 0 then found
  else if id_matches t a code wanted then a
  else fold_children t a by_id_visit key 0

let get_element_by_id t wanted =
  match find_code t "id" with
  | None -> None
  | Some code ->
    let a = by_id_visit t (code, wanted) 0 (addr t t.root) in
    if a = 0 then None else Some (node_at_exn t a)

(* Reads every attribute of the chain at [r] (in chain order) before
   setting any on [fresh]; the sets then run in reverse chain order,
   i.e. in insertion order. *)
let rec clone_attrs t fresh r =
  if r <> 0 then begin
    let code = read t r 0 in
    let buf = read t r 8 in
    let len = read t r 16 in
    let value = read_string t buf len in
    clone_attrs t fresh (read t r 24);
    set_attribute_at t fresh code value
  end

let rec clone_at t a =
  if is_text_at t a then create_text t (text_at t a)
  else begin
    let fresh = alloc_node t ~code:(tag_code_at t a) in
    clone_attrs t (Array.unsafe_get t.addr_of fresh) (read t a off_attrs);
    fold_children t a clone_visit fresh ();
    fresh
  end

and clone_visit t fresh () a = append_child t ~parent:fresh ~child:(clone_at t a)

let clone_subtree t node = clone_at t (addr t node)

(* --- Binding buffers --- *)

let text_to_buffer t ~site text =
  let len = String.length text in
  let buf = Pkru_safe.Env.alloc t.env ~site (max len 1) in
  if len > 0 then Sim.Machine.write_string t.machine buf text;
  (buf, len)
