(* Tests for the util library: RNG determinism, JSON round-trips, stats and
   table layout. *)

let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Util.Rng.create 42 in
  let b = Util.Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Util.Rng.next a) (Util.Rng.next b)
  done

let test_rng_int_bounds () =
  let rng = Util.Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Util.Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let rng = Util.Rng.create 9 in
  for _ = 1 to 1000 do
    let v = Util.Rng.float rng 3.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 3.5)
  done

let test_rng_shuffle_is_permutation () =
  let rng = Util.Rng.create 5 in
  let a = Array.init 50 (fun i -> i) in
  Util.Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_json_parse_basic () =
  let v = Util.Json.of_string {| {"a": 1, "b": [true, null, "x\n"], "c": -2.5} |} in
  Alcotest.(check int) "a" 1 Util.Json.(to_int (member "a" v));
  (match Util.Json.member "b" v with
  | Util.Json.List [ Util.Json.Bool true; Util.Json.Null; Util.Json.String "x\n" ] -> ()
  | _ -> Alcotest.fail "list shape");
  check_float "c" (-2.5) Util.Json.(to_float (member "c" v))

let test_json_errors () =
  let bad s =
    match Util.Json.of_string s with
    | exception Util.Json.Parse_error _ -> ()
    | _ -> Alcotest.fail ("should not parse: " ^ s)
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\" 1}";
  bad "tru";
  bad "1 2"

let test_json_unicode_escape () =
  match Util.Json.of_string {| "Aé" |} with
  | Util.Json.String s -> Alcotest.(check string) "utf8" "A\xc3\xa9" s
  | _ -> Alcotest.fail "not a string"

(* Random JSON generator for the round-trip property. *)
let json_gen =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [
            return Util.Json.Null;
            map (fun b -> Util.Json.Bool b) bool;
            map (fun i -> Util.Json.Int i) (int_range (-1000000) 1000000);
            map (fun f -> Util.Json.Float (Float.of_int f /. 16.0)) (int_range (-10000) 10000);
            map (fun s -> Util.Json.String s) (string_size ~gen:printable (int_range 0 12));
          ]
      in
      if n <= 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (1, map (fun l -> Util.Json.List l) (list_size (int_range 0 4) (self (n / 2))));
            ( 1,
              map
                (fun kvs ->
                  (* Duplicate keys would not round-trip through assoc lookup. *)
                  let seen = Hashtbl.create 8 in
                  let kvs =
                    List.filter
                      (fun (k, _) ->
                        if Hashtbl.mem seen k then false
                        else begin
                          Hashtbl.add seen k ();
                          true
                        end)
                      kvs
                  in
                  Util.Json.Obj kvs)
                (list_size (int_range 0 4)
                   (pair (string_size ~gen:printable (int_range 1 8)) (self (n / 2)))) );
          ])

let prop_json_roundtrip =
  QCheck.Test.make ~count:300 ~name:"json round-trip (compact)"
    (QCheck.make json_gen)
    (fun v -> Util.Json.of_string (Util.Json.to_string v) = v)

let prop_json_roundtrip_pretty =
  QCheck.Test.make ~count:300 ~name:"json round-trip (pretty)"
    (QCheck.make json_gen)
    (fun v -> Util.Json.of_string (Util.Json.to_string_pretty v) = v)

let test_stats_mean_geomean () =
  check_float "mean" 2.0 (Util.Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "geomean" 2.0 (Util.Stats.geomean [ 1.0; 4.0 ]);
  check_float "geomean3" 4.0 (Util.Stats.geomean [ 2.0; 4.0; 8.0 ]);
  check_float "empty mean" 0.0 (Util.Stats.mean []);
  check_float "overhead" 10.0 (Util.Stats.percent_overhead ~baseline:100.0 ~measured:110.0)

let test_stats_geomean_rejects_nonpositive () =
  let raises xs =
    match Util.Stats.geomean xs with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "zero rejected" true (raises [ 1.0; 0.0; 4.0 ]);
  Alcotest.(check bool) "negative rejected" true (raises [ -2.0 ]);
  check_float "positive ok" 2.0 (Util.Stats.geomean [ 1.0; 4.0 ])

let test_stats_percentile () =
  let xs = [ 15.0; 20.0; 35.0; 40.0; 50.0 ] in
  check_float "p0 = min" 15.0 (Util.Stats.percentile 0.0 xs);
  check_float "p100 = max" 50.0 (Util.Stats.percentile 100.0 xs);
  check_float "p50 = median" 35.0 (Util.Stats.percentile 50.0 xs);
  (* rank = 0.25 * 4 = 1.0, exactly the second sample *)
  check_float "p25 on a sample" 20.0 (Util.Stats.percentile 25.0 xs);
  (* rank = 0.40 * 4 = 1.6: interpolate 20 .. 35 *)
  check_float "p40 interpolates" 29.0 (Util.Stats.percentile 40.0 xs);
  check_float "median of pair" 15.0 (Util.Stats.percentile 50.0 [ 10.0; 20.0 ]);
  check_float "singleton" 7.0 (Util.Stats.percentile 99.0 [ 7.0 ]);
  (* unsorted input must be sorted internally *)
  check_float "unsorted input" 35.0 (Util.Stats.percentile 50.0 [ 50.0; 15.0; 35.0; 40.0; 20.0 ])

let test_stats_percentile_rejects () =
  let raises f = match f () with exception Invalid_argument _ -> true | _ -> false in
  Alcotest.(check bool) "empty sample" true (raises (fun () -> Util.Stats.percentile 50.0 []));
  Alcotest.(check bool) "p < 0" true (raises (fun () -> Util.Stats.percentile (-1.0) [ 1.0 ]));
  Alcotest.(check bool) "p > 100" true (raises (fun () -> Util.Stats.percentile 101.0 [ 1.0 ]))

let test_table_render () =
  let out =
    Util.Table.render ~header:[ "name"; "value" ] [ [ "alpha"; "1" ]; [ "b"; "22" ] ]
  in
  let lines = String.split_on_char '\n' out in
  (match lines with
  | header :: rule :: _ ->
    Alcotest.(check bool) "header has both columns" true
      (String.length header >= String.length "name   value");
    Alcotest.(check bool) "rule is dashes" true (String.for_all (fun c -> c = '-' || c = ' ') rule)
  | _ -> Alcotest.fail "too short");
  Alcotest.(check int) "line count" 5 (List.length lines)

let test_table_pads_short_rows () =
  let out = Util.Table.render ~header:[ "a"; "b"; "c" ] [ [ "x" ] ] in
  Alcotest.(check bool) "renders" true (String.length out > 0)

(* Int_table against Stdlib.Hashtbl under random replace/remove traffic:
   small key ranges force long probe runs, so removal must shift later
   members back correctly; large and negative keys exercise the mix. *)
let prop_int_table_matches_hashtbl =
  QCheck.Test.make ~count:100 ~name:"int table matches a Hashtbl model"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let rng = Util.Rng.create seed in
      let t = Util.Int_table.create ~dummy:(-1) (Util.Rng.int rng 8) in
      let model = Hashtbl.create 16 in
      let range = 1 + Util.Rng.int rng 200 in
      let key () =
        match Util.Rng.int rng 4 with
        | 0 -> (Util.Rng.int rng range * 4096) - (range * 2048)
        | _ -> Util.Rng.int rng range
      in
      let agree k =
        Util.Int_table.get t k = Option.value ~default:(-1) (Hashtbl.find_opt model k)
        && Util.Int_table.find_opt t k = Hashtbl.find_opt model k
      in
      let ok = ref true in
      for i = 1 to 600 do
        let k = key () in
        if Util.Rng.int rng 3 = 0 then begin
          Util.Int_table.remove t k;
          Hashtbl.remove model k
        end
        else begin
          Util.Int_table.replace t k i;
          Hashtbl.replace model k i
        end;
        ok := !ok && agree k && agree (key ()) && Util.Int_table.length t = Hashtbl.length model
      done;
      let keys = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) model []) in
      !ok && Array.to_list (Util.Int_table.sorted_keys t) = keys && Hashtbl.fold (fun k _ b -> b && agree k) model true)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng shuffle permutation" `Quick test_rng_shuffle_is_permutation;
    Alcotest.test_case "json parse basic" `Quick test_json_parse_basic;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "json unicode escape" `Quick test_json_unicode_escape;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_roundtrip_pretty;
    QCheck_alcotest.to_alcotest prop_int_table_matches_hashtbl;
    Alcotest.test_case "stats mean/geomean/overhead" `Quick test_stats_mean_geomean;
    Alcotest.test_case "stats geomean rejects non-positive" `Quick
      test_stats_geomean_rejects_nonpositive;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats percentile rejects" `Quick test_stats_percentile_rejects;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table pads short rows" `Quick test_table_pads_short_rows;
  ]
