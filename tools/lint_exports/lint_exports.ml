(* The export lint's checker: every value a lib/ interface exports has a
   user outside its own module in the product (lib/ bin/ bench/
   perfbench/ examples/), and every optional argument of an export a
   caller there that supplies it -- or an allowlist entry with a reason.

   It reads the typed trees dune writes with -bin-annot: a .cmti gives an
   interface's top-level [val]s and their [?label] arrows, a .cmt every
   value path an implementation names ([Texp_ident]), resolved through
   opens, the library wrappers dune generates and local module aliases,
   and the optional arguments each application of such a path supplies
   ([Texp_apply]).  A use is therefore a real reference, never a word in
   a comment or a local of the same name.  The type checker fills an
   omitted optional argument in with a [None] at a ghost location; that
   supplies nothing.

   Usage: lint_exports ALLOWLIST BUILD_ROOT
   (tools/lint-exports.sh builds the trees and runs it from the repository
   root with BUILD_ROOT = _build/default). *)

let product_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]

(* Every file under [dir] in a [byte] object directory ending in [ext]. *)
let rec byte_files ext dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.sort compare entries;
    Array.to_list entries
    |> List.concat_map (fun name ->
           let path = Filename.concat dir name in
           if Sys.is_directory path then byte_files ext path
           else if Filename.basename dir = "byte" && Filename.check_suffix name ext then [ path ]
           else [])

(* An interface: its source (lib/dir/mod.mli), its unit (Lib__Mod) and
   its exported values, in order, each with its optional arguments. *)
type intf = {
  source : string;
  unit_name : string;
  values : (string * string list) list;
}

(* The [?label]s of a function type, in order. *)
let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Asttypes.Optional l, _, rest, _) -> l :: optional_labels rest
  | Types.Tarrow (_, _, rest, _) -> optional_labels rest
  | Types.Tpoly (ty, _) -> optional_labels ty
  | _ -> []

let read_intf path =
  let cmt = Cmt_format.read_cmt path in
  match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
  | Cmt_format.Interface sg, Some source ->
    let values =
      List.filter_map
        (fun item ->
          match item.Typedtree.sig_desc with
          | Typedtree.Tsig_value vd when vd.Typedtree.val_prim = [] ->
            Some (vd.Typedtree.val_name.txt, optional_labels vd.Typedtree.val_val.Types.val_type)
          | _ -> None)
        sg.Typedtree.sig_items
    in
    Some { source; unit_name = cmt.Cmt_format.cmt_modname; values }
  | _ -> None

(* The "Unit.value" keys an implementation names, resolved against the
   compilation units [units]: [Sim.Machine.f] (through the library's
   wrapper), [Sim__.Machine.f] (through dune's alias module inside the
   library) and [Sim__Machine.f] all name Sim__Machine.f; and a
   "Unit.value?label" key for each optional argument an application of
   one supplies. *)
let uses_of units path =
  let cmt = Cmt_format.read_cmt path in
  let used = Hashtbl.create 256 in
  let aliases = Hashtbl.create 8 in
  let rec alias_target (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_ident (p, _) -> Some p
    | Typedtree.Tmod_constraint (me, _, _, _) -> alias_target me
    | _ -> None
  in
  (* A path's name, its head expanded while it is a local module alias. *)
  let rec expand p =
    let head = Path.head p in
    match Hashtbl.find_opt aliases head with
    | Some target ->
      let name = Path.name p and head_len = String.length (Ident.name head) in
      expand target ^ String.sub name head_len (String.length name - head_len)
    | None -> Path.name p
  in
  let key p =
    match String.split_on_char '.' (expand p) with
    | m1 :: m2 :: rest -> (
      let unit_name, rest =
        if String.ends_with ~suffix:"__" m1 && Hashtbl.mem units (m1 ^ m2) then (m1 ^ m2, rest)
        else if Hashtbl.mem units (m1 ^ "__" ^ m2) then (m1 ^ "__" ^ m2, rest)
        else (m1, m2 :: rest)
      in
      match rest with
      | [ value ] when Hashtbl.mem units unit_name -> Some (unit_name ^ "." ^ value)
      | _ -> None)
    | _ -> None
  in
  let supplied p args =
    Option.iter
      (fun k ->
        List.iter
          (function
            | Asttypes.Optional l, Some (a : Typedtree.expression)
              when not a.Typedtree.exp_loc.Location.loc_ghost ->
              Hashtbl.replace used (k ^ "?" ^ l) ()
            | _ -> ())
          args)
      (key p)
  in
  let default = Tast_iterator.default_iterator in
  let iterator =
    {
      default with
      Tast_iterator.expr =
        (fun sub e ->
          (match e.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, _, _) -> Option.iter (fun k -> Hashtbl.replace used k ()) (key p)
          | Typedtree.Texp_apply ({ exp_desc = Typedtree.Texp_ident (p, _, _); _ }, args) -> supplied p args
          | _ -> ());
          default.Tast_iterator.expr sub e);
      module_binding =
        (fun sub mb ->
          (match (mb.Typedtree.mb_id, alias_target mb.Typedtree.mb_expr) with
          | Some id, Some target -> Hashtbl.replace aliases id target
          | _ -> ());
          default.Tast_iterator.module_binding sub mb);
    }
  in
  (match cmt.Cmt_format.cmt_annots with
  | Cmt_format.Implementation str -> iterator.Tast_iterator.structure iterator str
  | _ -> ());
  (cmt.Cmt_format.cmt_modname, used)

(* The allowlist: "<interface>:<value>  <reason>" and
   "<interface>:<value>?<label>  <reason>" lines, in order. *)
let read_allowlist file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_from_opt line 0 ' ' with
           | None -> Some (line, "")
           | Some i -> Some (String.sub line 0 i, String.trim (String.sub line i (String.length line - i))))

let () =
  let allow_file, root =
    match Sys.argv with
    | [| _; allow; root |] -> (allow, root)
    | _ ->
      prerr_endline "usage: lint_exports ALLOWLIST BUILD_ROOT";
      exit 2
  in
  let intfs = List.filter_map read_intf (byte_files ".cmti" (Filename.concat root "lib")) in
  let units = Hashtbl.create 128 in
  List.iter (fun i -> Hashtbl.replace units i.unit_name ()) intfs;
  (* Implementations count as units too: a wrapper such as Engine names
     its modules as Engine.Eval. *)
  let impls =
    List.concat_map (fun d -> byte_files ".cmt" (Filename.concat root d)) product_dirs
  in
  List.iter
    (fun path -> Hashtbl.replace units (Cmt_format.read_cmt path).Cmt_format.cmt_modname ())
    impls;
  let uses = List.map (uses_of units) impls in
  let used_outside unit_name what =
    let key = unit_name ^ "." ^ what in
    List.exists (fun (user, used) -> user <> unit_name && Hashtbl.mem used key) uses
  in
  let allow = read_allowlist allow_file in
  let listed = Hashtbl.create 64 in
  List.iter (fun (entry, reason) -> Hashtbl.replace listed entry reason) allow;
  let exported = Hashtbl.create 1024 and product = Hashtbl.create 1024 in
  let bad = ref 0 and exports = ref 0 and optionals = ref 0 in
  (* [what] is an exported value [v] of [i], or one of its optional
     arguments [v?l]. *)
  let check i what fault =
    let entry = i.source ^ ":" ^ what in
    Hashtbl.replace exported entry ();
    if used_outside i.unit_name what then Hashtbl.replace product entry ()
    else if not (Hashtbl.mem listed entry) then begin
      Printf.printf "lint-exports: %s: %s (delete it, or allowlist it with a reason)\n" entry fault;
      incr bad
    end
  in
  List.iter
    (fun i ->
      List.iter
        (fun (value, labels) ->
          incr exports;
          check i value "no user outside its module";
          List.iter
            (fun l ->
              incr optionals;
              check i (value ^ "?" ^ l) "no caller outside its module supplies it")
            labels)
        i.values)
    (List.sort (fun a b -> compare a.source b.source) intfs);
  List.iter
    (fun (entry, reason) ->
      if not (Hashtbl.mem exported entry) then begin
        Printf.printf "lint-exports: stale allowlist entry %s: no such export or optional argument\n" entry;
        incr bad
      end
      else if Hashtbl.mem product entry then begin
        Printf.printf "lint-exports: stale allowlist entry %s: the product uses it now\n" entry;
        incr bad
      end
      else if reason = "" then begin
        Printf.printf "lint-exports: allowlist entry %s gives no reason\n" entry;
        incr bad
      end)
    allow;
  if !bad > 0 then exit 1;
  let optional_entries = List.length (List.filter (fun (e, _) -> String.contains e '?') allow) in
  Printf.printf "lint-exports: ok (%d exports, %d allowlisted; %d optional arguments, %d allowlisted)\n"
    !exports
    (List.length allow - optional_entries)
    !optionals optional_entries
