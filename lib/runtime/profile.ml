(* One counter cell per recorded site.  Every allocation from a site
   passes the same [Alloc_id.t] down, so a fault usually finds its cell
   in [last] by physical equality; otherwise one map lookup finds it.
   The map changes only when a new site joins, which is exactly when
   [version] bumps. *)
type cell = {
  id : Alloc_id.t;
  mutable hits : int;
}

type t = {
  mutable cells : cell Alloc_id.Map.t;
  mutable last : cell; (* the cell recorded last; before that, a cell no id matches *)
  mutable version : int; (* bumped whenever a new site joins *)
}

let make cells = { cells; last = { id = Alloc_id.synthetic 0; hits = 0 }; version = 0 }
let create () = make Alloc_id.Map.empty

let of_counts counts = make (Alloc_id.Map.mapi (fun id hits -> { id; hits }) counts)

let[@inline never] record_slow t id =
  let c =
    match Alloc_id.Map.find_opt id t.cells with
    | Some c -> c
    | None ->
      let c = { id; hits = 0 } in
      t.cells <- Alloc_id.Map.add id c t.cells;
      t.version <- t.version + 1;
      c
  in
  c.hits <- c.hits + 1;
  t.last <- c

let record t id =
  let c = t.last in
  if c.id == id then c.hits <- c.hits + 1 else record_slow t id

let mem t id = Alloc_id.Map.mem id t.cells
let version t = t.version

let cardinal t = Alloc_id.Map.cardinal t.cells

let sites t = List.map fst (Alloc_id.Map.bindings t.cells)

let hit_count t id =
  match Alloc_id.Map.find_opt id t.cells with
  | Some c -> c.hits
  | None -> 0

let counts t = Alloc_id.Map.map (fun c -> c.hits) t.cells

let merge a b = of_counts (Alloc_id.Map.union (fun _ x y -> Some (x + y)) (counts a) (counts b))

let subset t ~fraction ~rng =
  of_counts (Alloc_id.Map.filter (fun _ _ -> Util.Rng.float rng 1.0 < fraction) (counts t))

let to_json t =
  let site (id, c) =
    match Alloc_id.to_json id with
    | Util.Json.Obj fields -> Util.Json.Obj (fields @ [ ("hits", Util.Json.Int c.hits) ])
    | _ -> assert false
  in
  Util.Json.Obj
    [
      ("version", Util.Json.Int 1);
      ("sites", Util.Json.List (List.map site (Alloc_id.Map.bindings t.cells)));
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
      of_counts
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
