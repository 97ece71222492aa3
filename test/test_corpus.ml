(* Tests for the profiling corpus (§6 telemetry-style deployment): run
   aggregation, coverage analysis, persistence, and an
   end-to-end corpus-driven enforcement build on the browser. *)

let site = Runtime.Alloc_id.synthetic

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let profile_of sites =
  let p = Runtime.Profile.create () in
  List.iter (fun s -> Runtime.Profile.record p (site s)) sites;
  p

let sample_corpus () =
  let c = Runtime.Corpus.create () in
  Runtime.Corpus.add_run c ~name:"wpt" (profile_of [ 1; 2 ]);
  Runtime.Corpus.add_run c ~name:"jquery" (profile_of [ 2; 3 ]);
  Runtime.Corpus.add_run c ~name:"webidl" (profile_of [ 2 ]);
  c

let test_merge_and_coverage () =
  let c = sample_corpus () in
  Alcotest.(check int) "runs" 3 (Runtime.Corpus.run_count c);
  Alcotest.(check int) "merged sites" 3 (Runtime.Profile.cardinal (Runtime.Corpus.merged c));
  Alcotest.(check int) "site 2 in every run" 3 (Runtime.Corpus.coverage c (site 2));
  Alcotest.(check int) "site 1 in one run" 1 (Runtime.Corpus.coverage c (site 1));
  Alcotest.(check int) "unknown site" 0 (Runtime.Corpus.coverage c (site 99))

let test_fragile_sites () =
  let c = sample_corpus () in
  let fragile = Runtime.Corpus.fragile_sites c ~max_runs:1 in
  Alcotest.(check int) "two single-run sites" 2 (List.length fragile);
  Alcotest.(check bool) "site 2 is robust" false
    (List.exists (( = ) (site 2)) fragile)

let test_marginal_gains () =
  let c = sample_corpus () in
  Alcotest.(check (list (pair string int))) "growth curve"
    [ ("wpt", 2); ("jquery", 1); ("webidl", 0) ]
    (Runtime.Corpus.marginal_gains c)

let test_duplicate_run_rejected () =
  let c = sample_corpus () in
  Alcotest.(check bool) "duplicate rejected" true
    (match Runtime.Corpus.add_run c ~name:"wpt" (profile_of []) with
    | exception Invalid_argument _ -> true
    | () -> false)

let test_save_load_roundtrip () =
  let c = sample_corpus () in
  let dir = Filename.temp_file "pkru-corpus" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      Runtime.Corpus.save_dir c dir;
      (* The on-disk layout is the artifact's: a corpus.json index naming
         the runs in collection order, one profile file per run. *)
      let index =
        Util.Json.of_string
          (In_channel.with_open_text (Filename.concat dir "corpus.json") In_channel.input_all)
      in
      Alcotest.(check (list string)) "index lists runs in order" [ "wpt"; "jquery"; "webidl" ]
        (List.map Util.Json.to_str (Util.Json.to_list (Util.Json.member "runs" index)));
      List.iter
        (fun name ->
          Alcotest.(check bool) (name ^ " profile file exists") true
            (Sys.file_exists (Filename.concat dir (name ^ ".profile.json"))))
        [ "wpt"; "jquery"; "webidl" ];
      let c' = Runtime.Corpus.load_dir dir in
      Alcotest.(check int) "runs survive" 3 (Runtime.Corpus.run_count c');
      Alcotest.(check (list string)) "order preserved" [ "wpt"; "jquery"; "webidl" ]
        (List.map fst (Runtime.Corpus.runs c'));
      Alcotest.(check int) "merged agrees" 3
        (Runtime.Profile.cardinal (Runtime.Corpus.merged c'));
      Alcotest.(check int) "site 2 coverage survives" 3 (Runtime.Corpus.coverage c' (site 2)))

(* End-to-end: build the browser's deployment profile from a corpus of
   distinct browsing sessions, as the paper did with WPT + jQuery + WebIDL
   + Selenium browsing. *)
let test_corpus_driven_browser_build () =
  let corpus = Runtime.Corpus.create () in
  let profile_session name page script =
    let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Profiling)) in
    let b = Browser.create env in
    Browser.load_page b page;
    ignore (Browser.exec_script b script);
    Runtime.Corpus.add_run corpus ~name (Pkru_safe.Env.recorded_profile env)
  in
  profile_session "attrs" {|<div data="x">a</div>|}
    {|var d = domQueryTag("div")[0]; domGetAttribute(d, "data").charCodeAt(0);|};
  profile_session "html" {|<div data="x">a</div>|}
    {|var d = domQueryTag("div")[0]; domGetInnerHTML(d).charCodeAt(0);|};
  (* Each session alone misses flows the other exercises; the merged
     corpus covers both. *)
  let merged = Runtime.Corpus.merged corpus in
  let env = ok (Pkru_safe.Env.create ~profile:merged (Pkru_safe.Config.make Pkru_safe.Config.Mpk)) in
  let b = Browser.create env in
  Browser.load_page b {|<div data="x">a</div>|};
  ignore
    (Browser.exec_script b
       {|var d = domQueryTag("div")[0];
print(domGetAttribute(d, "data"));
print(domGetInnerHTML(d));|});
  Alcotest.(check (list string)) "both flows usable" [ "x"; "a" ] (Browser.console b);
  (* The growth curve shows the second run contributed new sites. *)
  match Runtime.Corpus.marginal_gains corpus with
  | [ (_, first); (_, second) ] ->
    Alcotest.(check bool) "first run contributes" true (first > 0);
    Alcotest.(check bool) "second run adds the html flow" true (second > 0)
  | _ -> Alcotest.fail "two runs expected"

let suite =
  [
    Alcotest.test_case "merge + coverage" `Quick test_merge_and_coverage;
    Alcotest.test_case "fragile sites" `Quick test_fragile_sites;
    Alcotest.test_case "marginal gains" `Quick test_marginal_gains;
    Alcotest.test_case "duplicate rejected" `Quick test_duplicate_run_rejected;
    Alcotest.test_case "save/load round-trip" `Quick test_save_load_roundtrip;
    Alcotest.test_case "corpus-driven browser build" `Quick test_corpus_driven_browser_build;
  ]
