type t = int

type rights =
  | Enable
  | Disable_write
  | Disable_access

let all_enabled = 0

let of_int v =
  if v < 0 || v > 0xFFFFFFFF then invalid_arg (Printf.sprintf "Pkru.of_int: %d" v);
  v

let to_int v = v

let ad_bit key = 1 lsl (2 * Pkey.to_int key)
let wd_bit key = 1 lsl ((2 * Pkey.to_int key) + 1)

let set_rights pkru key r =
  let cleared = pkru land lnot (ad_bit key lor wd_bit key) in
  match r with
  | Enable -> cleared
  | Disable_write -> cleared lor wd_bit key
  | Disable_access -> cleared lor ad_bit key

let rights pkru key =
  if pkru land ad_bit key <> 0 then Disable_access
  else if pkru land wd_bit key <> 0 then Disable_write
  else Enable

let can_read pkru key = pkru land ad_bit key = 0

let can_write pkru key = pkru land (ad_bit key lor wd_bit key) = 0

let all_disabled_except keys =
  let enabled key =
    Pkey.equal key Pkey.default || List.exists (Pkey.equal key) keys
  in
  let rec build k pkru =
    if k >= Pkey.count then pkru
    else
      let key = Pkey.of_int k in
      let pkru =
        if enabled key then set_rights pkru key Enable
        else set_rights pkru key Disable_access
      in
      build (k + 1) pkru
  in
  build 0 all_enabled

let equal = Int.equal
