(** Plain-text table rendering for benchmark reports.

    The bench harness prints every paper table/figure as an aligned text
    table on stdout; this module owns the layout so all reports look the
    same. *)

val render : header:string list -> string list list -> string
(** [render ~header rows] lays out [rows] under [header] with column
    separators and a rule under the header: the first column left-aligned,
    the rest right-aligned.  Rows shorter than the header are padded with
    empty cells. *)

val print : header:string list -> string list list -> unit
(** [print] is [render] followed by output to stdout with a trailing
    newline. *)
