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
     24 next attribute *)

type node = int

type t = {
  env : Pkru_safe.Env.t;
  machine : Sim.Machine.t;
  mutable tag_names : string array;
  tag_codes : (string, int) Hashtbl.t;
  mutable ntags : int;
  mutable addr_of : int array; (* node id -> record address; 0 = no live node *)
  id_at : node Util.Int_table.t; (* address -> id, for pointer walks; 0 = none *)
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

let intern t name =
  match Hashtbl.find_opt t.tag_codes name with
  | Some c -> c
  | None ->
    if t.ntags >= Array.length t.tag_names then begin
      let bigger = Array.make (2 * Array.length t.tag_names) "" in
      Array.blit t.tag_names 0 bigger 0 t.ntags;
      t.tag_names <- bigger
    end;
    t.tag_names.(t.ntags) <- name;
    Hashtbl.replace t.tag_codes name t.ntags;
    t.ntags <- t.ntags + 1;
    t.ntags - 1

let[@inline never] unknown_node node = invalid_arg (Printf.sprintf "Dom: unknown node handle %d" node)

(* Ids are issued densely from 1, so the handle is the index; id 0,
   negative and never-issued ids fall outside, freed ones read 0. *)
let addr t node =
  if node > 0 && node < Array.length t.addr_of then begin
    let a = Array.unsafe_get t.addr_of node in
    if a = 0 then unknown_node node else a
  end
  else unknown_node node

let read t a off = Sim.Machine.read_u64 t.machine (a + off)
let write t a off v = Sim.Machine.write_u64 t.machine (a + off) v
let read32 t a off = Sim.Machine.read_u32 t.machine (a + off)
let write32 t a off v = Sim.Machine.write_u32 t.machine (a + off) v

let alloc_node t ~code =
  let a = Pkru_safe.Env.alloc t.env ~site:Sites.node_record node_size in
  Sim.Machine.memset t.machine a '\000' node_size;
  let id = t.next_id in
  t.next_id <- id + 1;
  write32 t a off_id id;
  write32 t a off_tag code;
  if id >= Array.length t.addr_of then begin
    let bigger = Array.make (2 * id) 0 in
    Array.blit t.addr_of 0 bigger 0 (Array.length t.addr_of);
    t.addr_of <- bigger
  end;
  t.addr_of.(id) <- a;
  Util.Int_table.replace t.id_at a id;
  t.live_nodes <- t.live_nodes + 1;
  id

let create env =
  let t =
    {
      env;
      machine = Pkru_safe.Env.machine env;
      tag_names = Array.make 32 "";
      tag_codes = Hashtbl.create 32;
      ntags = 0;
      addr_of = Array.make 64 0;
      id_at = Util.Int_table.create ~dummy:0 64;
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

let create_element t tag = alloc_node t ~code:(intern t tag)

let write_text t a text =
  let len = String.length text in
  let buf = Pkru_safe.Env.alloc t.env ~site:Sites.text_buffer (max len 1) in
  if len > 0 then Sim.Machine.write_string t.machine buf text;
  write t a off_text buf;
  write t a off_text_len len

let create_text t text =
  let id = alloc_node t ~code:text_code in
  write_text t (addr t id) text;
  id

let tag_code t node = read32 t (addr t node) off_tag

let tag_name t node = t.tag_names.(tag_code t node)

(* Host-side intern-table introspection (no machine reads, no charges):
   compiled selectors resolve names to codes once and revalidate against
   [tag_count], which only ever grows. *)
let tag_count t = t.ntags

let find_code t name = Hashtbl.find_opt t.tag_codes name

let is_text t node = tag_code t node = text_code

let parent t node =
  let p = read t (addr t node) off_parent in
  if p = 0 then None
  else
    let id = Util.Int_table.get t.id_at p in
    if id = 0 then None else Some id

let append_child t ~parent ~child =
  let pa = addr t parent in
  let ca = addr t child in
  if read t ca off_parent <> 0 then invalid_arg "Dom.append_child: child already attached";
  if parent = child then invalid_arg "Dom.append_child: cannot append to self";
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

let id_of_addr t a =
  let id = Util.Int_table.get t.id_at a in
  if id = 0 then raise Not_found else id

let children t node =
  let rec walk a acc =
    if a = 0 then List.rev acc
    else walk (read t a off_next) (id_of_addr t a :: acc)
  in
  walk (read t (addr t node) off_first) []

let child_count t node = List.length (children t node)

(* --- Attributes --- *)

let find_attr t a code =
  let rec walk rec_addr =
    if rec_addr = 0 then None
    else if read t rec_addr 0 = code then Some rec_addr
    else walk (read t rec_addr 24)
  in
  walk (read t a off_attrs)

let alloc_value t value =
  let len = String.length value in
  let buf = Pkru_safe.Env.alloc t.env ~site:Sites.attr_value (max len 1) in
  if len > 0 then Sim.Machine.write_string t.machine buf value;
  (buf, len)

let set_attribute t node name value =
  let a = addr t node in
  let code = intern t name in
  match find_attr t a code with
  | Some rec_addr ->
    (* Replace the value buffer in place. *)
    let old_buf = read t rec_addr 8 in
    Pkru_safe.Env.dealloc t.env old_buf;
    let buf, len = alloc_value t value in
    write t rec_addr 8 buf;
    write t rec_addr 16 len
  | None ->
    let rec_addr = Pkru_safe.Env.alloc t.env ~site:Sites.attr_record attr_size in
    let buf, len = alloc_value t value in
    write t rec_addr 0 code;
    write t rec_addr 8 buf;
    write t rec_addr 16 len;
    write t rec_addr 24 (read t a off_attrs);
    write t a off_attrs rec_addr

let attribute_by_code t node code =
  match find_attr t (addr t node) code with
  | None -> None
  | Some rec_addr ->
    let buf = read t rec_addr 8 in
    let len = read t rec_addr 16 in
    Some (if len = 0 then "" else Bytes.to_string (Sim.Machine.read_bytes t.machine buf len))

let get_attribute t node name =
  match Hashtbl.find_opt t.tag_codes name with
  | None -> None
  | Some code -> attribute_by_code t node code

let attribute_count t node =
  let rec walk rec_addr n = if rec_addr = 0 then n else walk (read t rec_addr 24) (n + 1) in
  walk (read t (addr t node) off_attrs) 0

(* --- Text --- *)

let set_text t node text =
  let a = addr t node in
  if not (is_text t node) then invalid_arg "Dom.set_text: not a text node";
  let old = read t a off_text in
  if old <> 0 then Pkru_safe.Env.dealloc t.env old;
  write_text t a text

let text_of t node =
  let a = addr t node in
  if not (is_text t node) then invalid_arg "Dom.text_of: not a text node";
  let buf = read t a off_text in
  let len = read t a off_text_len in
  if len = 0 then "" else Bytes.to_string (Sim.Machine.read_bytes t.machine buf len)

let rec collect_text t node buf =
  if is_text t node then Buffer.add_string buf (text_of t node)
  else List.iter (fun c -> collect_text t c buf) (children t node)

let text_content t node =
  let buf = Buffer.create 64 in
  collect_text t node buf;
  Buffer.contents buf

(* --- Queries and serialisation --- *)

let query_tag t tag =
  match Hashtbl.find_opt t.tag_codes tag with
  | None -> []
  | Some code ->
    let acc = ref [] in
    let rec walk node =
      if tag_code t node = code then acc := node :: !acc;
      List.iter walk (children t node)
    in
    walk t.root;
    List.rev !acc

let rec serialize_node t node buf =
  if is_text t node then Buffer.add_string buf (text_of t node)
  else begin
    let tag = tag_name t node in
    Buffer.add_char buf '<';
    Buffer.add_string buf tag;
    (* Attributes, in stored (reverse-insertion) order. *)
    let rec attrs rec_addr =
      if rec_addr <> 0 then begin
        let code = read t rec_addr 0 in
        let vbuf = read t rec_addr 8 in
        let vlen = read t rec_addr 16 in
        Buffer.add_char buf ' ';
        Buffer.add_string buf t.tag_names.(code);
        Buffer.add_string buf "=\"";
        if vlen > 0 then
          Buffer.add_string buf (Bytes.to_string (Sim.Machine.read_bytes t.machine vbuf vlen));
        Buffer.add_char buf '"';
        attrs (read t rec_addr 24)
      end
    in
    attrs (read t (addr t node) off_attrs);
    Buffer.add_char buf '>';
    List.iter (fun c -> serialize_node t c buf) (children t node);
    Buffer.add_string buf "</";
    Buffer.add_string buf tag;
    Buffer.add_char buf '>'
  end

let serialize t node =
  let buf = Buffer.create 256 in
  List.iter (fun c -> serialize_node t c buf) (children t node);
  Buffer.contents buf

(* --- Subtree removal --- *)

let rec free_subtree t node =
  List.iter (free_subtree t) (children t node);
  let a = addr t node in
  let text = read t a off_text in
  if text <> 0 then Pkru_safe.Env.dealloc t.env text;
  let rec free_attrs rec_addr =
    if rec_addr <> 0 then begin
      let next = read t rec_addr 24 in
      Pkru_safe.Env.dealloc t.env (read t rec_addr 8);
      Pkru_safe.Env.dealloc t.env rec_addr;
      free_attrs next
    end
  in
  free_attrs (read t a off_attrs);
  t.addr_of.(node) <- 0;
  Util.Int_table.remove t.id_at a;
  t.live_nodes <- t.live_nodes - 1;
  Pkru_safe.Env.dealloc t.env a

let remove_children t node =
  List.iter (free_subtree t) (children t node);
  let a = addr t node in
  write t a off_first 0;
  write t a off_last 0

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
    let rec find_prev prev =
      if prev = 0 then invalid_arg "Dom.detach: corrupted sibling chain"
      else if read t prev off_next = ca then prev
      else find_prev (read t prev off_next)
    in
    let prev = find_prev first in
    write t prev off_next (read t ca off_next);
    if read t pa off_last = ca then write t pa off_last prev
  end;
  write t ca off_parent 0;
  write t ca off_next 0

let remove_child t ~parent ~child =
  detach t ~parent ~child;
  free_subtree t child

let insert_before t ~parent ~child ~before =
  let pa = addr t parent in
  let ca = addr t child in
  let ba = addr t before in
  if read t ca off_parent <> 0 then invalid_arg "Dom.insert_before: child already attached";
  if read t ba off_parent <> pa then invalid_arg "Dom.insert_before: anchor not a child";
  write t ca off_parent pa;
  write t ca off_next ba;
  let first = read t pa off_first in
  if first = ba then write t pa off_first ca
  else begin
    let rec find_prev prev =
      if prev = 0 then invalid_arg "Dom.insert_before: corrupted sibling chain"
      else if read t prev off_next = ba then prev
      else find_prev (read t prev off_next)
    in
    write t (find_prev first) off_next ca
  end

let get_element_by_id t wanted =
  match Hashtbl.find_opt t.tag_codes "id" with
  | None -> None
  | Some code ->
    let rec walk node =
      let hit =
        match find_attr t (addr t node) code with
        | None -> false
        | Some rec_addr ->
          let buf = read t rec_addr 8 in
          let len = read t rec_addr 16 in
          len = String.length wanted
          && (len = 0
             || Bytes.to_string (Sim.Machine.read_bytes t.machine buf len) = wanted)
      in
      if hit then Some node
      else
        let rec try_children = function
          | [] -> None
          | c :: rest ->
            (match walk c with
            | Some _ as found -> found
            | None -> try_children rest)
        in
        try_children (children t node)
    in
    walk t.root

let rec clone_subtree t node =
  if is_text t node then create_text t (text_of t node)
  else begin
    let fresh = alloc_node t ~code:(tag_code t node) in
    (* Attributes, preserving stored order. *)
    let rec collect rec_addr acc =
      if rec_addr = 0 then acc
      else
        let code = read t rec_addr 0 in
        let buf = read t rec_addr 8 in
        let len = read t rec_addr 16 in
        let value =
          if len = 0 then "" else Bytes.to_string (Sim.Machine.read_bytes t.machine buf len)
        in
        collect (read t rec_addr 24) ((t.tag_names.(code), value) :: acc)
    in
    List.iter
      (fun (name, value) -> set_attribute t fresh name value)
      (collect (read t (addr t node) off_attrs) []);
    List.iter
      (fun child -> append_child t ~parent:fresh ~child:(clone_subtree t child))
      (children t node);
    fresh
  end

(* --- Binding buffers --- *)

let text_to_buffer t ~site text =
  let len = String.length text in
  let buf = Pkru_safe.Env.alloc t.env ~site (max len 1) in
  if len > 0 then Sim.Machine.write_string t.machine buf text;
  (buf, len)

let free_buffer t addr = Pkru_safe.Env.dealloc t.env addr
