type 'a t = {
  data : 'a option array;
  capacity : int;
  mutable next : int; (* slot the next push writes *)
  mutable length : int;
  mutable dropped : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { data = Array.make capacity None; capacity; next = 0; length = 0; dropped = 0 }

let push t v =
  if t.length = t.capacity then t.dropped <- t.dropped + 1
  else t.length <- t.length + 1;
  t.data.(t.next) <- Some v;
  t.next <- (t.next + 1) mod t.capacity

let length t = t.length
let capacity t = t.capacity
let dropped t = t.dropped

let to_list t =
  (* Oldest-first: the oldest live element sits at [next] once the buffer
     has wrapped, at 0 before that. *)
  let start = (t.next - t.length + t.capacity) mod t.capacity in
  List.init t.length (fun i ->
      match t.data.((start + i) mod t.capacity) with
      | Some v -> v
      | None -> assert false)

let iter t f = List.iter f (to_list t)
