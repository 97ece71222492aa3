(* Tests for the CSS selector engine: parsing, matching semantics over the
   machine-resident DOM, and the domQuery binding. *)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let fresh () =
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Base)) in
  Browser.create env

let page =
  {|<div id="main" class="panel wide">
      <ul class="list">
        <li class="item first">one</li>
        <li class="item">two</li>
        <li id="last" class="item">three</li>
      </ul>
      <p class="item">outside the list</p>
    </div>
    <div class="panel"><span>side</span></div>|}

let query b text =
  Browser.Selector.query_all (Browser.dom b) (Browser.Selector.parse text)

let tags b nodes = List.map (Browser.Dom.tag_name (Browser.dom b)) nodes

let test_parse_and_print () =
  List.iter
    (fun (input, canon) ->
      Alcotest.(check string) input canon
        (Browser.Selector.to_string (Browser.Selector.parse input)))
    [
      ("div", "div");
      ("#main", "#main");
      (".item", ".item");
      ("div.panel#main", "div.panel#main");
      ("ul   li", "ul li");
      ("h1, h2", "h1, h2");
      ("*", "*");
    ]

let test_parse_errors () =
  List.iter
    (fun input ->
      Alcotest.(check bool) ("rejects " ^ input) true
        (match Browser.Selector.parse input with
        | exception Browser.Selector.Parse_error _ -> true
        | _ -> false))
    [ ""; "  "; "#"; "."; "div..x"; "a>b"; "," ]

let test_simple_queries () =
  let b = fresh () in
  Browser.load_page b page;
  Alcotest.(check int) "by tag" 3 (List.length (query b "li"));
  Alcotest.(check int) "by id" 1 (List.length (query b "#main"));
  Alcotest.(check int) "by class" 4 (List.length (query b ".item"));
  Alcotest.(check int) "universal counts elements" 8 (List.length (query b "*"));
  Alcotest.(check int) "missing" 0 (List.length (query b ".nope"))

let test_compound_and_multiclass () =
  let b = fresh () in
  Browser.load_page b page;
  Alcotest.(check int) "tag+class" 3 (List.length (query b "li.item"));
  Alcotest.(check int) "two classes" 1 (List.length (query b ".item.first"));
  Alcotest.(check int) "class word match" 2 (List.length (query b ".panel"));
  Alcotest.(check int) "tag+id+class" 1 (List.length (query b "li#last.item"));
  Alcotest.(check int) "id with wrong class" 0 (List.length (query b "#last.first"))

let test_descendant_combinator () =
  let b = fresh () in
  Browser.load_page b page;
  (* .item inside ul: excludes the stray <p class="item">. *)
  Alcotest.(check int) "ul .item" 3 (List.length (query b "ul .item"));
  Alcotest.(check int) "#main li" 3 (List.length (query b "#main li"));
  Alcotest.(check int) "deep chain" 1 (List.length (query b "div ul .first"));
  Alcotest.(check int) "non-ancestor chain" 0 (List.length (query b "p li"));
  Alcotest.(check (list string)) "document order" [ "li"; "li"; "li"; "p" ]
    (tags b (query b "#main .item"))

let test_selector_list () =
  let b = fresh () in
  Browser.load_page b page;
  Alcotest.(check (list string)) "union in document order" [ "ul"; "p"; "span" ]
    (tags b (query b "p, ul, span"))

let test_query_first_and_matches () =
  let b = fresh () in
  Browser.load_page b page;
  let dom = Browser.dom b in
  (match Browser.Selector.query_all dom (Browser.Selector.parse ".item") with
  | n :: _ -> Alcotest.(check string) "first item is a li" "li" (Browser.Dom.tag_name dom n)
  | [] -> Alcotest.fail "expected a match");
  let last = Option.get (Browser.Dom.get_element_by_id dom "last") in
  let matches text = List.mem last (Browser.Selector.query_all dom (Browser.Selector.parse text)) in
  Alcotest.(check bool) "matches positive" true (matches "ul li.item");
  Alcotest.(check bool) "matches negative" false (matches "p li")

let test_dom_query_binding () =
  let b = fresh () in
  Browser.load_page b page;
  ignore
    (Browser.exec_script b
       {|
print(domQuery("ul .item").length);
print(domQuery(".panel").length);
var first = domQuery("li.first")[0];
print(domGetAttribute(first, "class"));
print(domQuery("h1, span").length);
|});
  Alcotest.(check (list string)) "script selector results" [ "3"; "2"; "item first"; "1" ]
    (Browser.console b)

let test_dynamic_classes_rematch () =
  (* Selector matching reads live attribute bytes: toggling a class from
     script changes subsequent query results. *)
  let b = fresh () in
  Browser.load_page b {|<div class="a">x</div><div class="b">y</div>|};
  ignore
    (Browser.exec_script b
       {|
print(domQuery(".hot").length);
domSetAttribute(domQuery(".a")[0], "class", "a hot");
print(domQuery(".hot").length);
|});
  Alcotest.(check (list string)) "rematch after mutation" [ "0"; "1" ] (Browser.console b)

let suite =
  [
    Alcotest.test_case "parse + print" `Quick test_parse_and_print;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "simple queries" `Quick test_simple_queries;
    Alcotest.test_case "compound + multiclass" `Quick test_compound_and_multiclass;
    Alcotest.test_case "descendant combinator" `Quick test_descendant_combinator;
    Alcotest.test_case "selector lists" `Quick test_selector_list;
    Alcotest.test_case "query_first + matches" `Quick test_query_first_and_matches;
    Alcotest.test_case "domQuery binding" `Quick test_dom_query_binding;
    Alcotest.test_case "dynamic classes rematch" `Quick test_dynamic_classes_rematch;
  ]
