type t = {
  func_id : int;
  block_id : int;
  call_id : int;
}

let make ~func_id ~block_id ~call_id = { func_id; block_id; call_id }

let synthetic n = { func_id = -1; block_id = 0; call_id = n }

let compare a b =
  match Int.compare a.func_id b.func_id with
  | 0 ->
    (match Int.compare a.block_id b.block_id with
    | 0 -> Int.compare a.call_id b.call_id
    | c -> c)
  | c -> c

let pp fmt a = Format.fprintf fmt "alloc<%d:%d:%d>" a.func_id a.block_id a.call_id

let to_string a = Format.asprintf "%a" pp a

let to_json a =
  Util.Json.Obj
    [ ("func", Util.Json.Int a.func_id); ("block", Util.Json.Int a.block_id); ("call", Util.Json.Int a.call_id) ]

let of_json j =
  match
    ( Util.Json.member "func" j |> Util.Json.to_int,
      Util.Json.member "block" j |> Util.Json.to_int,
      Util.Json.member "call" j |> Util.Json.to_int )
  with
  | func_id, block_id, call_id -> { func_id; block_id; call_id }
  | exception _ -> invalid_arg "Alloc_id.of_json"

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Set.Make (Ord)
module Map = Map.Make (Ord)
