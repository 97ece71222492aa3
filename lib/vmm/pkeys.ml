type t = { taken : bool array (* index = key number; key 0 permanently taken *) }

let create () =
  let taken = Array.make Mpk.Pkey.count false in
  taken.(0) <- true;
  { taken }

let pkey_alloc t =
  let rec scan k =
    if k >= Mpk.Pkey.count then Error "ENOSPC"
    else if not t.taken.(k) then begin
      t.taken.(k) <- true;
      Ok (Mpk.Pkey.of_int k)
    end
    else scan (k + 1)
  in
  scan 1

let reserve t key =
  let k = Mpk.Pkey.to_int key in
  if k = 0 then Error "EINVAL"
  else if t.taken.(k) then Error "EBUSY"
  else begin
    t.taken.(k) <- true;
    Ok ()
  end

let pkey_free t key =
  let k = Mpk.Pkey.to_int key in
  if k = 0 || not t.taken.(k) then Error "EINVAL"
  else begin
    t.taken.(k) <- false;
    Ok ()
  end
