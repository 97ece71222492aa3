type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* splitmix64: Steele, Lea & Flood, "Fast splittable pseudorandom number
   generators", OOPSLA 2014. *)
let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (v /. 9007199254740992.0)

let bool t = Int64.logand (next t) 1L = 1L

let shuffle t a =
  let n = Array.length a in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
