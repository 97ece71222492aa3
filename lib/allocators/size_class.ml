(* The ladder matches jemalloc's classic small classes: multiples of 8 up
   to 128, then progressively coarser steps up to 3584. *)
let ladder =
  [|
    8; 16; 24; 32; 40; 48; 56; 64; 80; 96; 112; 128; 160; 192; 224; 256; 320; 384; 448; 512;
    640; 768; 896; 1024; 1280; 1536; 1792; 2048; 2560; 3072; 3584;
  |]

type t = int

let count = Array.length ladder

let max_small = ladder.(count - 1)

(* Every class size is a multiple of 8, so the class of [n] depends only
   on [(n + 7) / 8]: character [k] of this (immutable) table is the
   smallest class holding [8k] bytes. *)
let by_eighth =
  String.init ((max_small / 8) + 1) (fun k ->
      let rec find i = if ladder.(i) >= 8 * k then i else find (i + 1) in
      Char.chr (find 0))

let small_class n = Char.code by_eighth.[(n + 7) lsr 3]

let bytes c = ladder.(c)

let page_size = Vmm.Layout.page_size

let run_pages c =
  let b = bytes c in
  if b <= 256 then 1
  else if b <= 1024 then 2
  else if b <= 2048 then 4
  else 8

let slots_per_run c = run_pages c * page_size / bytes c
