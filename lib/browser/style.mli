(** Styles: parsed [style="..."] attributes, the input to {!Layout}. *)

type display =
  | Block
  | Inline
  | None_display

type t = {
  display : display;
  width : int option;   (** device units; None = auto *)
  height : int option;
  margin : int;
  padding : int;
}

val default : t

val parse : string -> t
(** Parses ["display:block;width:100;margin:4"]-style declarations;
    unknown properties and malformed declarations are ignored (CSS error
    recovery). *)

val to_string : t -> string
(** Canonical rendering of the non-default properties. *)
