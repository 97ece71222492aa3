(* A metrics registry in the Prometheus data model: named families of
   counters / gauges / histograms / windowed series, each family holding
   one cell per label set.  The registry is a passive container — nothing
   in the hot path touches it; exporters build one from a sink snapshot
   (see Export.prometheus) and render it with [expose]. *)

type labels = (string * string) list

type series = {
  s_window : int; (* simulated cycles per bucket *)
  s_buckets : (int, float ref) Hashtbl.t; (* bucket index -> accumulated value *)
}

type cell =
  | Counter of int ref
  | Gauge of float ref
  | Hist of Histogram.t
  | Series of series

type family = {
  f_name : string;
  f_help : string;
  f_kind : string; (* "counter" | "gauge" | "histogram" | "series" *)
  f_cells : (labels, cell) Hashtbl.t;
}

type t = { families : (string, family) Hashtbl.t }

let create () = { families = Hashtbl.create 32 }

(* Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*. *)
let valid_name name =
  name <> ""
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       name

let family t ~kind ~help name =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Metrics: invalid metric name %S" name);
  match Hashtbl.find_opt t.families name with
  | Some f ->
    if f.f_kind <> kind then
      invalid_arg
        (Printf.sprintf "Metrics: %S already registered as a %s, not a %s" name f.f_kind kind);
    f
  | None ->
    let f = { f_name = name; f_help = help; f_kind = kind; f_cells = Hashtbl.create 4 } in
    Hashtbl.add t.families name f;
    f

(* Prometheus label names: [a-zA-Z_][a-zA-Z0-9_]* (no colons, unlike
   metric names; "__"-prefixed names are reserved for internal use). *)
let valid_label_name name =
  name <> ""
  && (match name.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       name
  && not (String.length name >= 2 && name.[0] = '_' && name.[1] = '_')

(* Label sets are compared structurally; sort so ("a",_)::("b",_) and its
   permutation are the same cell.  Label values are unrestricted (any
   UTF-8, escaped at exposition time) but names must be valid — an
   invalid name would corrupt the text format for every scraper. *)
let norm labels =
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg (Printf.sprintf "Metrics: invalid label name %S" k))
    labels;
  List.sort (fun (a, _) (b, _) -> compare a b) labels

let cell f labels make =
  let labels = norm labels in
  match Hashtbl.find_opt f.f_cells labels with
  | Some c -> c
  | None ->
    let c = make () in
    Hashtbl.add f.f_cells labels c;
    c

let wrong_kind name = invalid_arg (Printf.sprintf "Metrics: %S holds a different cell kind" name)

let counter t ?(help = "") ?(labels = []) name =
  let f = family t ~kind:"counter" ~help name in
  match cell f labels (fun () -> Counter (ref 0)) with
  | Counter r -> r
  | _ -> wrong_kind name

let incr ?(by = 1) r = r := !r + by

let gauge t ?(help = "") ?(labels = []) name =
  let f = family t ~kind:"gauge" ~help name in
  match cell f labels (fun () -> Gauge (ref 0.0)) with
  | Gauge r -> r
  | _ -> wrong_kind name

let set r v = r := v

let attach_histogram t ?(help = "") name h =
  let f = family t ~kind:"histogram" ~help name in
  ignore (cell f [] (fun () -> Hist h))

let series t ?(help = "") ~window name =
  if window <= 0 then invalid_arg "Metrics.series: window must be positive";
  let f = family t ~kind:"series" ~help name in
  match cell f [] (fun () -> Series { s_window = window; s_buckets = Hashtbl.create 16 }) with
  | Series s -> s
  | _ -> wrong_kind name

let observe_series s ~cycle v =
  if cycle < 0 then invalid_arg "Metrics.observe_series: negative cycle";
  let bucket = cycle / s.s_window in
  match Hashtbl.find_opt s.s_buckets bucket with
  | Some r -> r := !r +. v
  | None -> Hashtbl.add s.s_buckets bucket (ref v)

let series_points s =
  Hashtbl.fold (fun bucket r acc -> (bucket * s.s_window, !r) :: acc) s.s_buckets []
  |> List.sort compare

(* --- Prometheus text exposition (version 0.0.4) --- *)

let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf {|\\|}
      | '"' -> Buffer.add_string buf {|\"|}
      | '\n' -> Buffer.add_string buf {|\n|}
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let escape_help v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf {|\\|}
      | '\n' -> Buffer.add_string buf {|\n|}
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> k ^ "=\"" ^ escape_label_value v ^ "\"") labels)
    ^ "}"

(* Prometheus spells the special values "NaN", "+Inf" and "-Inf" —
   OCaml's %g would print "nan" / "inf", which scrapers reject. *)
let render_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let render_cell buf name labels = function
  | Counter r -> Buffer.add_string buf (Printf.sprintf "%s%s %d\n" name (render_labels labels) !r)
  | Gauge r ->
    Buffer.add_string buf
      (Printf.sprintf "%s%s %s\n" name (render_labels labels) (render_float !r))
  | Hist h ->
    (* Cumulative le-buckets over the histogram's log2 bucket bounds. *)
    let cumulative = ref 0 in
    List.iter
      (fun (_, hi, n) ->
        cumulative := !cumulative + n;
        Buffer.add_string buf
          (Printf.sprintf "%s_bucket%s %d\n" name
             (render_labels (labels @ [ ("le", string_of_int hi) ]))
             !cumulative))
      (Histogram.nonempty_buckets h);
    Buffer.add_string buf
      (Printf.sprintf "%s_bucket%s %d\n" name
         (render_labels (labels @ [ ("le", "+Inf") ]))
         (Histogram.count h));
    Buffer.add_string buf
      (Printf.sprintf "%s_sum%s %d\n" name (render_labels labels) (Histogram.sum h));
    Buffer.add_string buf
      (Printf.sprintf "%s_count%s %d\n" name (render_labels labels) (Histogram.count h))
  | Series s ->
    List.iter
      (fun (start, v) ->
        Buffer.add_string buf
          (Printf.sprintf "%s%s %s\n" name
             (render_labels (labels @ [ ("window_start", string_of_int start) ]))
             (render_float v)))
      (series_points s)

let expose t =
  let buf = Buffer.create 4096 in
  let families =
    Hashtbl.fold (fun _ f acc -> f :: acc) t.families []
    |> List.sort (fun a b -> compare a.f_name b.f_name)
  in
  List.iter
    (fun f ->
      if f.f_help <> "" then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" f.f_name (escape_help f.f_help));
      (* A windowed series is a gauge sampled per cycle window. *)
      let exposition_type = if f.f_kind = "series" then "gauge" else f.f_kind in
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" f.f_name exposition_type);
      Hashtbl.fold (fun labels c acc -> (labels, c) :: acc) f.f_cells []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
      |> List.iter (fun (labels, c) -> render_cell buf f.f_name labels c))
    families;
  Buffer.contents buf
