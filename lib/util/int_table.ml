(* Open addressing with linear probing over two flat arrays.  [empty]
   marks a free slot; the load factor stays at most 1/2, so every probe
   sequence ends at a free slot.  Removal shifts later members of the
   probe run back into the hole (no tombstones), so lookups never slow
   down after churn. *)

let empty = min_int

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable count : int;
  mutable mask : int; (* capacity - 1; capacity is a power of two *)
  dummy : 'a;
}

(* Fibonacci hashing on the 63-bit word, then the high bits folded into
   the low ones that the mask keeps.  Non-negative, so never [empty]. *)
let mix k =
  let h = k * 0x1E3779B97F4A7C15 in
  (h lxor (h lsr 31)) land max_int

let create ~dummy n =
  let cap = ref 8 in
  while !cap < 2 * n do
    cap := 2 * !cap
  done;
  { keys = Array.make !cap empty; vals = Array.make !cap dummy; count = 0; mask = !cap - 1; dummy }

let length t = t.count

(* Slot holding [k], or the free slot that ends its probe run. *)
let rec slot keys mask k i =
  let k' = Array.unsafe_get keys i in
  if k' = k || k' = empty then i else slot keys mask k ((i + 1) land mask)

let get t k =
  let i = slot t.keys t.mask k (mix k land t.mask) in
  if Array.unsafe_get t.keys i = empty then t.dummy else Array.unsafe_get t.vals i

let find_opt t k =
  let i = slot t.keys t.mask k (mix k land t.mask) in
  if k = empty || Array.unsafe_get t.keys i = empty then None else Some (Array.unsafe_get t.vals i)

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 2 * Array.length keys in
  let mask = cap - 1 in
  let keys' = Array.make cap empty and vals' = Array.make cap t.dummy in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k <> empty then begin
      let j = slot keys' mask k (mix k land mask) in
      Array.unsafe_set keys' j k;
      Array.unsafe_set vals' j (Array.unsafe_get vals i)
    end
  done;
  t.keys <- keys';
  t.vals <- vals';
  t.mask <- mask

let replace t k v =
  if k = empty then invalid_arg "Int_table.replace: min_int is reserved";
  let i = slot t.keys t.mask k (mix k land t.mask) in
  if Array.unsafe_get t.keys i = k then Array.unsafe_set t.vals i v
  else if 2 * (t.count + 1) > Array.length t.keys then begin
    grow t;
    let i = slot t.keys t.mask k (mix k land t.mask) in
    Array.unsafe_set t.keys i k;
    Array.unsafe_set t.vals i v;
    t.count <- t.count + 1
  end
  else begin
    Array.unsafe_set t.keys i k;
    Array.unsafe_set t.vals i v;
    t.count <- t.count + 1
  end

(* Backward-shift deletion: walk the run after the hole; a member whose
   home slot does not lie cyclically in (hole, j] can move into the hole. *)
let rec close_hole t hole j =
  let j = (j + 1) land t.mask in
  let k = Array.unsafe_get t.keys j in
  if k = empty then begin
    Array.unsafe_set t.keys hole empty;
    Array.unsafe_set t.vals hole t.dummy
  end
  else
    let home = mix k land t.mask in
    let stays = if hole <= j then hole < home && home <= j else hole < home || home <= j in
    if stays then close_hole t hole j
    else begin
      Array.unsafe_set t.keys hole k;
      Array.unsafe_set t.vals hole (Array.unsafe_get t.vals j);
      close_hole t j j
    end

let remove t k =
  if k <> empty then begin
    let i = slot t.keys t.mask k (mix k land t.mask) in
    if Array.unsafe_get t.keys i = k then begin
      t.count <- t.count - 1;
      close_hole t i i
    end
  end

let fold f t init =
  let keys = t.keys and vals = t.vals in
  let acc = ref init in
  for i = 0 to Array.length keys - 1 do
    let k = Array.unsafe_get keys i in
    if k <> empty then acc := f k (Array.unsafe_get vals i) !acc
  done;
  !acc

let sorted_keys t =
  let a = Array.of_list (fold (fun k _ acc -> k :: acc) t []) in
  Array.sort Int.compare a;
  a
