(* A compound selector is a conjunction of simple conditions on one
   element; a path is a descendant chain of compounds (rightmost matches
   the candidate, the rest must match ancestors in order); a selector is a
   disjunction of paths. *)

type simple =
  | Tag of string
  | Id of string
  | Class of string
  | Universal

type compound = simple list (* non-empty *)

type t = compound list list (* disjunction of descendant chains *)

exception Parse_error of string

let () =
  Printexc.register_printer (function
    | Parse_error msg -> Some ("Selector.Parse_error: " ^ msg)
    | _ -> None)

let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '-' || c = '_'

(* Parse one compound like "div#main.note" or ".row" or "*". *)
let parse_compound text =
  let n = String.length text in
  let rec name_end i = if i < n && is_name_char text.[i] then name_end (i + 1) else i in
  let rec loop i acc =
    if i >= n then List.rev acc
    else
      match text.[i] with
      | '*' -> loop (i + 1) (Universal :: acc)
      | '#' ->
        let stop = name_end (i + 1) in
        if stop = i + 1 then raise (Parse_error ("empty id in " ^ text));
        loop stop (Id (String.sub text (i + 1) (stop - i - 1)) :: acc)
      | '.' ->
        let stop = name_end (i + 1) in
        if stop = i + 1 then raise (Parse_error ("empty class in " ^ text));
        loop stop (Class (String.sub text (i + 1) (stop - i - 1)) :: acc)
      | c when is_name_char c ->
        let stop = name_end i in
        loop stop (Tag (String.sub text i (stop - i)) :: acc)
      | c -> raise (Parse_error (Printf.sprintf "unexpected %C in selector %S" c text))
  in
  match loop 0 [] with
  | [] -> raise (Parse_error ("empty selector component in " ^ text))
  | compound -> compound

let split_on_whitespace text =
  String.split_on_char ' ' text |> List.filter (fun s -> s <> "")

let parse text =
  let alternatives =
    String.split_on_char ',' text
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
    |> List.map (fun path -> List.map parse_compound (split_on_whitespace path))
  in
  if alternatives = [] || List.exists (fun path -> path = []) alternatives then
    raise (Parse_error (Printf.sprintf "empty selector %S" text));
  alternatives

let simple_to_string = function
  | Tag t -> t
  | Id i -> "#" ^ i
  | Class c -> "." ^ c
  | Universal -> "*"

let to_string t =
  String.concat ", "
    (List.map
       (fun path ->
         String.concat " "
           (List.map (fun compound -> String.concat "" (List.map simple_to_string compound)) path))
       t)

(* --- Matching ---

   Candidates are node records ({!Dom.record}): a walk resolves a handle
   only for a node it returns. *)

let has_class dom a cls =
  match Dom.get_attribute_at dom a "class" with
  | None -> false
  | Some value -> List.mem cls (split_on_whitespace value)

let matches_simple dom a = function
  | Universal -> true
  | Tag tag -> Dom.tag_name_at dom a = tag
  | Id id -> Dom.get_attribute_at dom a "id" = Some id
  | Class cls -> has_class dom a cls

let matches_compound dom a compound =
  (not (Dom.is_text_at dom a)) && List.for_all (matches_simple dom a) compound

(* rev_path is the descendant chain rightmost-first; the head must match
   [a], the rest must match some strictly-ascending ancestors. *)
let rec matches_rev_path dom a = function
  | [] -> true
  | compound :: rest ->
    matches_compound dom a compound
    &&
    let rec some_ancestor current =
      let parent = Dom.parent_at dom current in
      if parent = 0 then rest = [] else matches_rev_path dom parent rest || some_ancestor parent
    in
    (match rest with
    | [] -> true
    | _ -> some_ancestor a)

let matches_at dom a t = List.exists (fun path -> matches_rev_path dom a (List.rev path)) t

let rec query_visit dom (root, t) acc a =
  let acc = if a <> root && matches_at dom a t then Dom.node_at dom a :: acc else acc in
  Dom.fold_children dom a query_visit (root, t) acc

let query_all dom t =
  let root = Dom.record dom (Dom.root dom) in
  List.rev (query_visit dom (root, t) [] root)

(* --- Compiled matching ---

   The interpreted matcher above re-resolves selector names against the
   DOM's intern table and re-splits class attribute values on every
   candidate node.  A compiled selector does that host-side work once,
   while performing the exact same *charged* DOM reads in the same order,
   so simulated cycles, faults and traces are bit-identical:

   - tag tests read the node's tag code (one charged header read, same as
     [tag_name]) and compare integers instead of strings;
   - attribute tests use a pre-resolved name code.  A name the DOM has
     never interned matches nothing *without any charged reads* — exactly
     like [get_attribute]'s name-miss path — and codes are revalidated
     against the (monotonic) intern count, since a later
     [createElement]/[setAttribute] can intern a name that compiled as
     unknown;
   - class-attribute values are split through the caller's [split], which
     the browser backs with a content-keyed memo (splitting is a pure
     function of the value string, so the memo needs no invalidation). *)

type nref = {
  n_name : string;
  mutable n_code : int; (* -1 = not interned *)
  mutable n_snap : int; (* intern count when last resolved *)
}

type csimple =
  | Ctag of nref
  | Cattr of nref * string (* resolved attribute name, wanted value *)
  | Cclass of nref * string (* resolved "class", wanted class *)
  | Cuniversal

type compiled = {
  source : t;
  cpaths : csimple list list list; (* [t]'s paths, each reversed: rightmost compound first *)
}

let nref name = { n_name = name; n_code = -1; n_snap = -1 }

let code_of dom r =
  let snap = Dom.tag_count dom in
  if r.n_snap <> snap then begin
    r.n_snap <- snap;
    r.n_code <- (match Dom.find_code dom r.n_name with Some c -> c | None -> -1)
  end;
  r.n_code

let compile (sel : t) : compiled =
  let compile_simple = function
    | Tag tag -> Ctag (nref tag)
    | Id id -> Cattr (nref "id", id)
    | Class cls -> Cclass (nref "class", cls)
    | Universal -> Cuniversal
  in
  {
    source = sel;
    cpaths = List.map (fun path -> List.rev_map (List.map compile_simple) path) sel;
  }

let source c = c.source

let matches_csimple ~split dom a = function
  | Cuniversal -> true
  | Ctag r ->
    let code = code_of dom r in
    (* The header read is charged whether or not the tag is known, just
       like the interpreted [tag_name] comparison. *)
    Dom.tag_code_at dom a = code && code >= 0
  | Cattr (r, wanted) ->
    let code = code_of dom r in
    if code < 0 then false (* uninterned name: no charged reads, like get_attribute *)
    else Dom.attribute_by_code_at dom a code = Some wanted
  | Cclass (r, cls) ->
    let code = code_of dom r in
    if code < 0 then false
    else (
      match Dom.attribute_by_code_at dom a code with
      | None -> false
      | Some value -> List.mem cls (split value))

let rec matches_ccompound ~split dom a = function
  | [] -> true
  | simple :: rest -> matches_csimple ~split dom a simple && matches_ccompound ~split dom a rest

let rec matches_rev_cpath ~split dom a = function
  | [] -> true
  | compound :: rest ->
    (not (Dom.is_text_at dom a))
    && matches_ccompound ~split dom a compound
    &&
    match rest with
    | [] -> true
    | _ -> some_cancestor ~split dom rest a

and some_cancestor ~split dom rest current =
  let parent = Dom.parent_at dom current in
  parent <> 0 && (matches_rev_cpath ~split dom parent rest || some_cancestor ~split dom rest parent)

let rec matches_cpaths ~split dom a = function
  | [] -> false
  | path :: rest -> matches_rev_cpath ~split dom a path || matches_cpaths ~split dom a rest

type walk = {
  split : string -> string list;
  root : Dom.record;
  paths : csimple list list list;
}

let rec cquery_visit dom w acc a =
  let acc =
    if a <> w.root && matches_cpaths ~split:w.split dom a w.paths then Dom.node_at dom a :: acc
    else acc
  in
  Dom.fold_children dom a cquery_visit w acc

let query_all_compiled ~split dom c =
  let root = Dom.record dom (Dom.root dom) in
  List.rev (cquery_visit dom { split; root; paths = c.cpaths } [] root)
