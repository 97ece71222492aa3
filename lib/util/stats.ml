let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.0
  | xs ->
    List.iter
      (fun x ->
        if x <= 0.0 then
          invalid_arg (Printf.sprintf "Stats.geomean: non-positive value %g" x))
      xs;
    let log_sum = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    exp (log_sum /. float_of_int (List.length xs))

(* Linear interpolation between closest ranks (the "exclusive" method used
   by most benchmark harnesses degenerates on tiny samples; this is the
   inclusive variant: p=0 is the min, p=100 the max). *)
let percentile p xs =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: rank outside [0, 100]";
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty sample"
  | xs ->
    let sorted = Array.of_list xs in
    Array.sort compare sorted;
    let n = Array.length sorted in
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = int_of_float (Float.ceil rank) in
    if lo = hi then sorted.(lo)
    else begin
      let frac = rank -. float_of_int lo in
      (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
    end

let percent_overhead ~baseline ~measured =
  assert (baseline <> 0.0);
  (measured -. baseline) /. baseline *. 100.0

let normalized ~baseline ~measured =
  assert (baseline <> 0.0);
  measured /. baseline
