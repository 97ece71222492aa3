type t = {
  mutable hits : int Alloc_id.Map.t;
  mutable version : int; (* bumped whenever a new site joins *)
}

let make hits = { hits; version = 0 }
let create () = make Alloc_id.Map.empty

let record t id =
  t.hits <-
    Alloc_id.Map.update id
      (function
        | None ->
          t.version <- t.version + 1;
          Some 1
        | Some n -> Some (n + 1))
      t.hits

let mem t id = Alloc_id.Map.mem id t.hits
let version t = t.version

let cardinal t = Alloc_id.Map.cardinal t.hits

let sites t = List.map fst (Alloc_id.Map.bindings t.hits)

let hit_count t id =
  match Alloc_id.Map.find_opt id t.hits with
  | Some n -> n
  | None -> 0

let merge a b = make (Alloc_id.Map.union (fun _ x y -> Some (x + y)) a.hits b.hits)

let subset t ~fraction ~rng =
  make (Alloc_id.Map.filter (fun _ _ -> Util.Rng.float rng 1.0 < fraction) t.hits)

let to_json t =
  let site (id, hits) =
    match Alloc_id.to_json id with
    | Util.Json.Obj fields -> Util.Json.Obj (fields @ [ ("hits", Util.Json.Int hits) ])
    | _ -> assert false
  in
  Util.Json.Obj
    [
      ("version", Util.Json.Int 1);
      ("sites", Util.Json.List (List.map site (Alloc_id.Map.bindings t.hits)));
    ]

let of_json j =
  match Util.Json.member "sites" j with
  | exception Not_found -> invalid_arg "Profile.of_json: missing sites"
  | sites ->
    let parse_site s =
      let id = Alloc_id.of_json s in
      let hits =
        match Util.Json.member "hits" s with
        | exception Not_found -> 1
        | h -> Util.Json.to_int h
      in
      (id, hits)
    in
    (match Util.Json.to_list sites with
    | exception Invalid_argument _ -> invalid_arg "Profile.of_json: sites not a list"
    | l ->
      make
        (List.fold_left (fun acc s -> let id, n = parse_site s in Alloc_id.Map.add id n acc)
           Alloc_id.Map.empty l))

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Util.Json.to_string_pretty (to_json t)))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_json (Util.Json.of_string (In_channel.input_all ic)))
