type t = { mutable entries : (string * Profile.t) list (* reversed *) }

let create () = { entries = [] }

let add_run t ~name profile =
  if List.mem_assoc name t.entries then
    invalid_arg (Printf.sprintf "Corpus.add_run: duplicate run %S" name);
  t.entries <- (name, profile) :: t.entries

let run_count t = List.length t.entries

let runs t = List.rev t.entries

let merged t =
  List.fold_left (fun acc (_, p) -> Profile.merge acc p) (Profile.create ()) t.entries

let coverage t site =
  List.fold_left (fun acc (_, p) -> if Profile.mem p site then acc + 1 else acc) 0 t.entries

let fragile_sites t ~max_runs =
  Profile.sites (merged t) |> List.filter (fun site -> coverage t site <= max_runs)

let marginal_gains t =
  let seen = ref Alloc_id.Set.empty in
  List.map
    (fun (name, profile) ->
      let sites = Alloc_id.Set.of_list (Profile.sites profile) in
      let fresh = Alloc_id.Set.diff sites !seen in
      seen := Alloc_id.Set.union !seen sites;
      (name, Alloc_id.Set.cardinal fresh))
    (runs t)

let index_file = "corpus.json"

let save_dir t dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let names = List.map fst (runs t) in
  let index = Util.Json.Obj [ ("runs", Util.Json.List (List.map (fun n -> Util.Json.String n) names)) ] in
  let oc = open_out (Filename.concat dir index_file) in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Util.Json.to_string_pretty index));
  List.iter
    (fun (name, profile) -> Profile.save profile (Filename.concat dir (name ^ ".profile.json")))
    (runs t)

let load_dir dir =
  let ic = open_in (Filename.concat dir index_file) in
  let index =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> Util.Json.of_string (In_channel.input_all ic))
  in
  let names =
    match Util.Json.member "runs" index with
    | Util.Json.List items -> List.map Util.Json.to_str items
    | _ | (exception Not_found) -> invalid_arg "Corpus.load_dir: malformed index"
  in
  let t = create () in
  List.iter
    (fun name ->
      add_run t ~name (Profile.load (Filename.concat dir (name ^ ".profile.json"))))
    names;
  t
