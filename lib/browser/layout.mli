(** The layout pass: block layout over the machine-resident DOM.

    A reflow walks the document, computes a box (x, y, width, height) for
    every visible node from its computed style and content, and stores the
    boxes as machine-resident records (site {!Sites.layout_scratch}) —
    browser-internal MT data, like Servo's flow tree.  The model:

    {ul
    {- block elements stack vertically inside their parent's content box,
       separated by margins; inline elements and text share that flow with
       heights derived from text length (a crude line model);}
    {- [width] defaults to the parent's content width, [height] to the sum
       of children plus padding;}
    {- [display:none] subtrees get no boxes.}} *)

type box = {
  x : int;
  y : int;
  width : int;
  height : int;
}

type t

val reflow : Dom.t -> t
(** Lays the document out in an 800-pixel viewport.  Styles come from
    each element's [style] attribute (parsed with {!Style.parse}); absent
    attributes mean default style. *)

val box_of : t -> Dom.node -> box option
(** [None] for undisplayed or unknown nodes. *)

val document_height : t -> int
val boxes_computed : t -> int

val box_record_addr : t -> Dom.node -> int option
(** Address of the node's machine-resident box record (for tests
    asserting residency). *)
