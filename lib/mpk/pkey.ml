type t = int

let count = 16

let of_int k =
  if k < 0 || k >= count then invalid_arg (Printf.sprintf "Pkey.of_int: %d" k);
  k

let to_int k = k

let default = 0

let trusted = 1

let equal = Int.equal
