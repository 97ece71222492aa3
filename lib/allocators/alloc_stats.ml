type t = {
  mutable allocs : int;
  mutable frees : int;
  mutable bytes_allocated : int;
  mutable bytes_freed : int;
  mutable peak_live : int;
}

let create () = { allocs = 0; frees = 0; bytes_allocated = 0; bytes_freed = 0; peak_live = 0 }

let live_bytes t = t.bytes_allocated - t.bytes_freed

let record_alloc t bytes =
  t.allocs <- t.allocs + 1;
  t.bytes_allocated <- t.bytes_allocated + bytes;
  let live = live_bytes t in
  if live > t.peak_live then t.peak_live <- live

let record_free t bytes =
  t.frees <- t.frees + 1;
  t.bytes_freed <- t.bytes_freed + bytes

let live_objects t = t.allocs - t.frees
let peak_live_bytes t = t.peak_live
