type box = {
  x : int;
  y : int;
  width : int;
  height : int;
}

type t = {
  machine : Sim.Machine.t;
  records : int Util.Int_table.t; (* node -> box record address; 0 = none *)
  mutable total_height : int;
}

let line_height = 16
let chars_per_line = 40

let box_record_size = 32

(* One reflow: the walk over node records ({!Dom.fold_children}); a box
   is keyed by its node's handle. *)
type pass = {
  env : Pkru_safe.Env.t;
  dom : Dom.t;
  boxes : int Util.Int_table.t;
}

let write_box p a (b : box) =
  let machine = Pkru_safe.Env.machine p.env in
  let addr = Pkru_safe.Env.alloc p.env ~site:Sites.layout_scratch box_record_size in
  Sim.Machine.write_u32 machine addr b.x;
  Sim.Machine.write_u32 machine (addr + 4) b.y;
  Sim.Machine.write_u32 machine (addr + 8) b.width;
  Sim.Machine.write_u32 machine (addr + 12) b.height;
  Util.Int_table.replace p.boxes (Dom.node_at p.dom a) addr

let read_box machine addr =
  {
    x = Sim.Machine.read_u32 machine addr;
    y = Sim.Machine.read_u32 machine (addr + 4);
    width = Sim.Machine.read_u32 machine (addr + 8);
    height = Sim.Machine.read_u32 machine (addr + 12);
  }

let text_height text =
  let len = String.length text in
  if len = 0 then 0 else line_height * (1 + ((len - 1) / chars_per_line))

let style_of dom a =
  match Dom.get_attribute_at dom a "style" with
  | Some text -> Style.parse text
  | None -> Style.default

(* A content box: children stack from its top-left corner. *)
type content = {
  pass : pass;
  cx : int;
  cy : int;
  cwidth : int;
}

(* Lay out the node at [a] with its top-left at (x, y) and at most
   [avail] width; returns the height consumed. *)
let rec layout_node p a ~x ~y ~avail =
  let dom = p.dom in
  if Dom.is_text_at dom a then begin
    let height = text_height (Dom.text_at dom a) in
    write_box p a { x; y; width = avail; height };
    height
  end
  else begin
    let style = style_of dom a in
    match style.Style.display with
    | Style.None_display -> 0
    | Style.Block | Style.Inline ->
      let margin = style.Style.margin in
      let padding = style.Style.padding in
      let width =
        match style.Style.width with
        | Some w -> min w (max 0 (avail - (2 * margin)))
        | None -> max 0 (avail - (2 * margin))
      in
      let content =
        {
          pass = p;
          cx = x + margin + padding;
          cy = y + margin + padding;
          cwidth = max 0 (width - (2 * padding));
        }
      in
      let children_height = Dom.fold_children dom a layout_child content 0 in
      let height =
        match style.Style.height with
        | Some h -> h + (2 * padding)
        | None -> children_height + (2 * padding)
      in
      write_box p a { x = x + margin; y = y + margin; width; height };
      height + (2 * margin)
  end

and layout_child _ c offset a =
  offset + layout_node c.pass a ~x:c.cx ~y:(c.cy + offset) ~avail:c.cwidth

(* The viewport every page lays out in, in CSS pixels. *)
let viewport_width = 800

let reflow dom =
  let env = Dom.env dom in
  (* At most one box per live node: sized once, never rehashed. *)
  let p = { env; dom; boxes = Util.Int_table.create ~dummy:0 (Dom.node_count dom) } in
  let total_height = layout_node p (Dom.record dom (Dom.root dom)) ~x:0 ~y:0 ~avail:viewport_width in
  { machine = Pkru_safe.Env.machine env; records = p.boxes; total_height }

let box_record_addr t node = Util.Int_table.find_opt t.records node

let box_of t node = Option.map (read_box t.machine) (box_record_addr t node)

let document_height t = t.total_height

let boxes_computed t = Util.Int_table.length t.records
