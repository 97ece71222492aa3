(* Host-speed calibration.

   The host's speed drifts: on a shared VM the same pass can take 1.5x as
   long for minutes at a time, which would swamp any change to the program.
   So a fixed reference kernel, which runs none of the program's code, is
   timed between operations, and each pass's host times are reported at
   reference speed: t * nominal_s / kernel_s, where kernel_s is the median
   kernel time sampled during that pass.  A change to the program moves t
   only.

   The kernel does what the simulator's hot paths do (array updates,
   hash-table lookups, data-dependent indices) without allocating, so it
   leaves the GC counters of the pass untouched. *)

let nominal_s = 0.020 (* reported times are those of a host where the kernel takes this long *)
let interval_s = 0.25 (* at most one sample per interval between operations *)
let min_samples = 5 (* per pass; short passes are topped up at their end *)

let table =
  let h = Hashtbl.create 4096 in
  for i = 0 to 4095 do
    Hashtbl.replace h i i
  done;
  h

let arr = Array.make 65536 0

let kernel () =
  let acc = ref 0 in
  for i = 0 to 299_999 do
    let k = (i * 7919) land 65535 in
    arr.(k) <- arr.(k) + i;
    let hk = (k + !acc) land 4095 in
    let v = Hashtbl.find table hk in
    Hashtbl.replace table hk (v + i);
    acc := !acc + v
  done;
  !acc

(* Sampling must not allocate: the number of samples depends on the host's
   speed, and allocations would move the minor collections, and with them
   what the GC promotes and the pass's peak heap.  Hence CPU time from
   [Sys.time] (unboxed; the program is single-threaded and CPU-bound, so it
   tracks wall time) and float arrays for the state. *)
let capacity = 4096
let samples = Array.make capacity 0.0
let count = ref 0
let clock = Array.make 2 0.0 (* end of the last sample; seconds spent sampling this pass *)

let sample () =
  let t0 = Sys.time () in
  ignore (Sys.opaque_identity (kernel ()));
  let t1 = Sys.time () in
  if !count < capacity then begin
    samples.(!count) <- t1 -. t0;
    incr count
  end;
  clock.(1) <- clock.(1) +. (t1 -. t0);
  clock.(0) <- t1

(* Called between operations, outside every timer. *)
let tick () = if !count = 0 || Sys.time () -. clock.(0) >= interval_s then sample ()

let start_pass () =
  count := 0;
  clock.(1) <- 0.0

let spent () = clock.(1)

(* The pass's median kernel time, after topping up to [min_samples]. *)
let end_pass () =
  while !count < min_samples do
    sample ()
  done;
  Util.Stats.percentile 50.0 (Array.to_list (Array.sub samples 0 !count))
