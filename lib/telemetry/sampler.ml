(* The cycle-driven sampling profiler.  The machine's charge path ticks
   the installed sampler with every batch of retired cycles; each time a
   whole sampling period elapses the sampler snapshots the current
   compartment stack (via the registered provider) into a folded-stack
   count.  Output is the standard flamegraph collapsed format:
   "frame;frame;frame <samples>" per line.

   Like the sink, the sampler charges no simulated cycles and the disabled
   path is one load and one branch, so traced and untraced runs retire
   identical cycle counts. *)

type t = {
  every : int; (* sampling period in simulated cycles *)
  mutable credit : int; (* cycles accumulated toward the next sample *)
  mutable total : int; (* samples taken *)
  counts : (string, int ref) Hashtbl.t; (* folded stack -> samples *)
  mutable provider : (unit -> string list) option;
      (* snapshot provider: the current compartment stack, root first.
         Set by the runtime layer that owns the stack (Env/Gate); the
         telemetry library cannot depend on it directly. *)
}

let create ~every =
  if every <= 0 then invalid_arg "Sampler.create: every must be positive";
  { every; credit = 0; total = 0; counts = Hashtbl.create 32; provider = None }

let every t = t.every
let set_provider t f = t.provider <- Some f

let record t frames weight =
  let key = String.concat ";" frames in
  (match Hashtbl.find_opt t.counts key with
  | Some r -> r := !r + weight
  | None -> Hashtbl.add t.counts key (ref weight));
  t.total <- t.total + weight

let tick t n =
  t.credit <- t.credit + n;
  if t.credit >= t.every then begin
    (* A single large charge may span several periods: each contributes
       one sample so sample counts stay proportional to cycles. *)
    let k = t.credit / t.every in
    t.credit <- t.credit - (k * t.every);
    let frames = match t.provider with Some f -> f () | None -> [ "(no stack provider)" ] in
    record t frames k
  end

let samples_total t = t.total

let stacks t =
  Hashtbl.fold (fun key r acc -> (key, !r) :: acc) t.counts [] |> List.sort compare

let leaf_of key =
  match String.rindex_opt key ';' with
  | Some i -> String.sub key (i + 1) (String.length key - i - 1)
  | None -> key

let leaf_counts t =
  let acc = Hashtbl.create 8 in
  Hashtbl.iter
    (fun key r ->
      let leaf = leaf_of key in
      match Hashtbl.find_opt acc leaf with
      | Some l -> l := !l + !r
      | None -> Hashtbl.add acc leaf (ref !r))
    t.counts;
  Hashtbl.fold (fun leaf r out -> (leaf, !r) :: out) acc [] |> List.sort compare

let leaf_shares t =
  if t.total = 0 then []
  else List.map (fun (leaf, n) -> (leaf, float_of_int n /. float_of_int t.total)) (leaf_counts t)

let to_folded t =
  let buf = Buffer.create 1024 in
  List.iter (fun (key, n) -> Buffer.add_string buf (Printf.sprintf "%s %d\n" key n)) (stacks t);
  Buffer.contents buf

let to_json t =
  let open Util.Json in
  Obj
    [
      ("sample_every_cycles", Int t.every);
      ("samples_total", Int t.total);
      ( "stacks",
        List
          (List.map
             (fun (key, n) -> Obj [ ("stack", String key); ("samples", Int n) ])
             (stacks t)) );
      ( "leaf_shares",
        Obj (List.map (fun (leaf, share) -> (leaf, Float share)) (leaf_shares t)) );
    ]
