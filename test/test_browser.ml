(* Tests for the browser substrate: HTML parsing, the machine-resident DOM,
   the gated binding layer, and the full profile->enforce cycle on the
   Servo-like scenario (artifact experiment E2 in miniature). *)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let fresh ?profile mode =
  let env = ok (Pkru_safe.Env.create ?profile (Pkru_safe.Config.make mode)) in
  Browser.create env

(* --- HTML parser --- *)

let test_html_roundtrip () =
  let src = {|<div id="a" class="x"><span>hi</span>there<br/></div><p>end</p>|} in
  let parsed = Browser.Html.parse src in
  Alcotest.(check string) "round-trip"
    {|<div id="a" class="x"><span>hi</span>there<br></br></div><p>end</p>|}
    (Browser.Html.to_string parsed)

let test_html_errors () =
  List.iter
    (fun src ->
      Alcotest.(check bool) (Printf.sprintf "rejects %s" src) true
        (match Browser.Html.parse src with
        | exception Browser.Html.Html_error _ -> true
        | _ -> false))
    [ "<div>"; "</div>"; "<div></span>"; "<div attr=unquoted></div>"; "<a href=\"x></a>" ]

(* Canonical forms of the benchmark and browsing pages, pinned from the
   option-returning parser: (page, length, digest of [to_string]). *)
let test_html_pages () =
  let pages =
    List.map (fun rows -> (Printf.sprintf "rows %d" rows, Workloads.Dom_scripts.page ~rows))
      [ 1; 16; 256 ]
    @ List.map
        (fun s -> (s.Workloads.Browsing.session_name, s.Workloads.Browsing.page))
        Workloads.Browsing.sessions
  in
  Alcotest.(check (list (pair string (pair int string)))) "canonical pages"
    [ ("rows 1", (68, "0bbb1e438debeb6a2c9c7eaf242e096f"));
      ("rows 16", (905, "8084c426b36bc985473e5f6e9f6802a5"));
      ("rows 256", (14897, "533ffb715139262d0bd9046bb2c0ba39"));
      ("wpt", (453, "2cac88379928ae3303e79b99f0df5683"));
      ("jquery", (677, "3871e68c15f03e90cadcd011bbc753ef"));
      ("webidl", (46, "0280d7a9de56b98ad37ffeb6107138ac"));
      ("browse-search", (343, "fd930b9b0061d20eb8f1439de6d4b9dc"));
      ("browse-wiki", (563, "b3ae5c77165d48eb7a8601ed84e20a4c"));
      ("browse-video", (233, "38afbe10c4e8002ab3b3dc48815d1aae"));
      ("browse-selectors", (508, "3e57501e87a353bf5b311ed41b471931")) ]
    (List.map
       (fun (name, src) ->
         let canon = Browser.Html.to_string (Browser.Html.parse src) in
         (name, (String.length canon, Digest.to_hex (Digest.string canon))))
       pages)

let test_html_error_messages () =
  List.iter
    (fun (src, expected) ->
      Alcotest.(check string) (Printf.sprintf "error for %S" src) expected
        (match Browser.Html.parse src with
        | exception Browser.Html.Html_error msg -> msg
        | trees -> "parsed: " ^ Browser.Html.to_string trees))
    [ ("<a href=\"x></a>", "unterminated attribute value at offset 15");
      ("<div><p>x</p>", "missing </div> at offset 13");
      ("</div>", "stray closing tag </div> at offset 6");
      ("<div></span>", "expected </div>, found </span> at offset 12");
      ("<a/ >", "expected '>' after '/' at offset 3");
      ("<div attr=unquoted></div>", "expected a quoted attribute value at offset 10");
      ("<>", "expected a name at offset 1");
      ("<a></a x>", "expected '>' in closing tag at offset 7");
      ("<a \"x\">", "expected '>' in opening tag at offset 3") ]

(* --- DOM (base mode: no enforcement in the way) --- *)

let test_dom_tree_construction () =
  let b = fresh Pkru_safe.Config.Base in
  let dom = Browser.dom b in
  let root = Browser.Dom.root dom in
  let div = Browser.Dom.create_element dom "div" in
  let txt = Browser.Dom.create_text dom "hello" in
  Browser.Dom.append_child dom ~parent:root ~child:div;
  Browser.Dom.append_child dom ~parent:div ~child:txt;
  Alcotest.(check int) "children of root" 1 (Browser.Dom.child_count dom root);
  Alcotest.(check string) "tag" "div" (Browser.Dom.tag_name dom div);
  Alcotest.(check bool) "text node" true (Browser.Dom.is_text dom txt);
  Alcotest.(check string) "text content walks tree" "hello" (Browser.Dom.text_content dom root);
  Alcotest.(check (option int)) "parent" (Some div)
    (Browser.Dom.parent dom txt)

let test_dom_attributes () =
  let b = fresh Pkru_safe.Config.Base in
  let dom = Browser.dom b in
  let div = Browser.Dom.create_element dom "div" in
  Alcotest.(check (option string)) "missing" None (Browser.Dom.get_attribute dom div "id");
  Browser.Dom.set_attribute dom div "id" "main";
  Browser.Dom.set_attribute dom div "class" "big";
  Alcotest.(check (option string)) "get" (Some "main") (Browser.Dom.get_attribute dom div "id");
  Browser.Dom.set_attribute dom div "id" "other-longer-value";
  Alcotest.(check (option string)) "overwrite" (Some "other-longer-value")
    (Browser.Dom.get_attribute dom div "id");
  Alcotest.(check int) "two attrs" 2 (Browser.Dom.attribute_count dom div)

let test_dom_memory_in_trusted_pool () =
  let b = fresh Pkru_safe.Config.Base in
  let env = Browser.env b in
  let before = (Allocators.Pkalloc.trusted_stats (Pkru_safe.Env.pkalloc env)).Allocators.Alloc_stats.allocs in
  Browser.load_page b "<div id=\"x\">text</div>";
  let after = (Allocators.Pkalloc.trusted_stats (Pkru_safe.Env.pkalloc env)).Allocators.Alloc_stats.allocs in
  Alcotest.(check bool) "DOM allocates from the trusted allocator" true (after > before)

let test_dom_query_and_serialize () =
  let b = fresh Pkru_safe.Config.Base in
  let dom = Browser.dom b in
  Browser.load_page b {|<div><p>one</p><p>two</p></div><p>three</p>|};
  Alcotest.(check int) "query finds all" 3 (List.length (Browser.Dom.query_tag dom "p"));
  Alcotest.(check string) "serialize"
    {|<div><p>one</p><p>two</p></div><p>three</p>|}
    (Browser.Dom.serialize dom (Browser.Dom.root dom))

let test_dom_remove_children_frees () =
  let b = fresh Pkru_safe.Config.Base in
  let dom = Browser.dom b in
  let env = Browser.env b in
  Browser.load_page b {|<div a="1"><span>deep</span><span>tree</span></div>|};
  let stats = Allocators.Pkalloc.trusted_stats (Pkru_safe.Env.pkalloc env) in
  let live_before = Allocators.Alloc_stats.live_bytes stats in
  let nodes_before = Browser.Dom.node_count dom in
  Browser.Dom.remove_children dom (Browser.Dom.root dom);
  Alcotest.(check bool) "nodes released" true (Browser.Dom.node_count dom < nodes_before);
  Alcotest.(check int) "root only" 1 (Browser.Dom.node_count dom);
  Alcotest.(check bool) "heap shrank" true (Allocators.Alloc_stats.live_bytes stats < live_before)

(* --- Scripts against the DOM (base mode) --- *)

(* Handles are dense ids: 0, negative, never-issued and freed handles
   all fail the same way, and the live count follows removals. *)
let test_dom_invalid_handles () =
  let b = fresh Pkru_safe.Config.Base in
  let dom = Browser.dom b in
  let root = Browser.Dom.root dom in
  let ul = Browser.Dom.create_element dom "ul" in
  Browser.Dom.append_child dom ~parent:root ~child:ul;
  let items =
    List.init 3 (fun i ->
        let li = Browser.Dom.create_element dom "li" in
        Browser.Dom.append_child dom ~parent:ul ~child:li;
        let txt = Browser.Dom.create_text dom (string_of_int i) in
        Browser.Dom.append_child dom ~parent:li ~child:txt;
        (li, txt))
  in
  Alcotest.(check int) "root + ul + 3 items + 3 texts" 8 (Browser.Dom.node_count dom);
  let li, txt = List.nth items 1 in
  Browser.Dom.remove_child dom ~parent:ul ~child:li;
  Alcotest.(check int) "subtree of two freed" 6 (Browser.Dom.node_count dom);
  let never_issued = txt + 1000 in
  List.iter
    (fun handle ->
      let expected = Invalid_argument (Printf.sprintf "Dom: unknown node handle %d" handle) in
      Alcotest.check_raises (Printf.sprintf "handle %d" handle) expected (fun () ->
          ignore (Browser.Dom.tag_name dom handle)))
    [ 0; -1; min_int; li; txt; never_issued ];
  Browser.Dom.remove_children dom root;
  Alcotest.(check int) "root only" 1 (Browser.Dom.node_count dom);
  Alcotest.check_raises "freed ul" (Invalid_argument (Printf.sprintf "Dom: unknown node handle %d" ul))
    (fun () -> ignore (Browser.Dom.children dom ul));
  let fresh_node = Browser.Dom.create_element dom "p" in
  Alcotest.(check string) "a new handle works" "p" (Browser.Dom.tag_name dom fresh_node);
  Alcotest.(check int) "one more node" 2 (Browser.Dom.node_count dom)

let test_script_builds_dom () =
  let b = fresh Pkru_safe.Config.Base in
  ignore
    (Browser.exec_script b
       {|
var root = domRoot();
for (var i = 0; i < 5; i = i + 1) {
  var d = domCreateElement("div");
  domSetAttribute(d, "idx", "n" + i);
  domAppendChild(root, d);
}
print(domChildCount(root));
|});
  Alcotest.(check (list string)) "script saw its DOM" [ "5" ] (Browser.console b);
  Alcotest.(check int) "host DOM agrees" 5
    (Browser.Dom.child_count (Browser.dom b) (Browser.Dom.root (Browser.dom b)))

let test_script_reads_attributes_and_html () =
  let b = fresh Pkru_safe.Config.Base in
  Browser.load_page b {|<div id="target" data="payload"><span>in</span></div>|};
  ignore
    (Browser.exec_script b
       {|
var divs = domQueryTag("div");
var d = divs[0];
print(domGetAttribute(d, "data"));
print(domGetInnerHTML(d));
print(domTextContent(d));
|});
  Alcotest.(check (list string)) "script output"
    [ "payload"; "<span>in</span>"; "in" ]
    (Browser.console b)

let test_script_inner_html_assignment () =
  let b = fresh Pkru_safe.Config.Base in
  Browser.load_page b {|<div id="host">old</div>|};
  ignore
    (Browser.exec_script b
       {|
var d = domQueryTag("div")[0];
domSetInnerHTML(d, "<p>new</p><p>content</p>");
print(domChildCount(d));
|});
  Alcotest.(check (list string)) "replaced" [ "2" ] (Browser.console b);
  Alcotest.(check int) "query sees new nodes" 2
    (List.length (Browser.Dom.query_tag (Browser.dom b) "p"))

let test_title_bindings () =
  let b = fresh Pkru_safe.Config.Base in
  ignore (Browser.exec_script b {|domSetTitle("hello"); print(domGetTitle() + "!");|});
  Alcotest.(check (list string)) "title round-trip" [ "hello!" ] (Browser.console b)

(* --- The compartment story (E2 in miniature) --- *)

let drive_page b =
  Browser.load_page b {|<div id="app" data="seed"><p>alpha</p><p>beta</p></div>|};
  ignore
    (Browser.exec_script b
       {|
var app = domQueryTag("div")[0];
var total = 0;
for (var i = 0; i < 4; i = i + 1) {
  var p = domCreateElement("p");
  domAppendChild(app, p);
  total = total + domChildCount(app);
}
var data = domGetAttribute(app, "data");
var html = domGetInnerHTML(app);
var txt = domTextContent(app);
print(data + ":" + total + ":" + html.charCodeAt(0) + ":" + txt.substring(0, 3));
|});
  Browser.console b

let test_profiling_browser_records_shared_sites () =
  let env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Profiling)) in
  let b = Browser.create env in
  let out = drive_page b in
  Alcotest.(check (list string)) "profiled run behaves" [ "seed:18:60:alp" ] out;
  let profile = Pkru_safe.Env.recorded_profile env in
  (* The shared buffers were discovered... *)
  List.iter
    (fun site ->
      Alcotest.(check bool)
        (Printf.sprintf "profile has %s" (Runtime.Alloc_id.to_string site))
        true (Runtime.Profile.mem profile site))
    [ Browser.Sites.script_source; Browser.Sites.get_attribute; Browser.Sites.inner_html;
      Browser.Sites.text_content ];
  (* ...and the DOM's internal records were not. *)
  List.iter
    (fun site ->
      Alcotest.(check bool)
        (Printf.sprintf "profile lacks %s" (Runtime.Alloc_id.to_string site))
        false (Runtime.Profile.mem profile site))
    [ Browser.Sites.node_record; Browser.Sites.attr_record; Browser.Sites.attr_value ]

let test_enforced_browser_works_with_profile () =
  (* Stage 1: profile. *)
  let prof_env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Profiling)) in
  let prof_browser = Browser.create prof_env in
  ignore (drive_page prof_browser);
  let profile = Pkru_safe.Env.recorded_profile prof_env in
  (* Stage 2: enforce; the same workload must run cleanly and count
     transitions through real gates. *)
  let env = ok (Pkru_safe.Env.create ~profile (Pkru_safe.Config.make Pkru_safe.Config.Mpk)) in
  let b = Browser.create env in
  Alcotest.(check (list string)) "enforced run behaves" [ "seed:18:60:alp" ] (drive_page b);
  Alcotest.(check bool) "transitions happened" true (Pkru_safe.Env.transitions env > 10);
  Alcotest.(check bool) "some sites moved to MU" true (Pkru_safe.Env.sites_moved env >= 4);
  Alcotest.(check bool) "%MU positive" true (Pkru_safe.Env.percent_untrusted_bytes env > 0.0)

(* The interned-site counters against the allocation event stream: a
   site is used once it allocates, and moved when its first allocation
   went to MU.  Checked on a profiling run (nothing moves) and on the
   enforced run that follows it. *)
let test_site_counters_match_events () =
  let counted env run =
    let sink = Telemetry.Sink.create ~capacity:1_000_000 () in
    Telemetry.Ctx.with_sink (Pkru_safe.Env.ctx env) sink run;
    Alcotest.(check int) "no events dropped" 0 (Telemetry.Sink.dropped sink);
    let first = Hashtbl.create 16 in
    List.iter
      (fun (r : Telemetry.Event.record) ->
        match r.Telemetry.Event.event with
        | Telemetry.Event.Alloc { site = Some site; compartment; _ } ->
          if not (Hashtbl.mem first site) then Hashtbl.add first site compartment
        | _ -> ())
      (Telemetry.Sink.events sink);
    let moved =
      Hashtbl.fold (fun _ c n -> if c = Telemetry.Event.Untrusted then n + 1 else n) first 0
    in
    Alcotest.(check int) "sites used" (Hashtbl.length first) (Pkru_safe.Env.sites_used env);
    Alcotest.(check int) "sites moved" moved (Pkru_safe.Env.sites_moved env);
    moved
  in
  let drive env () = ignore (drive_page (Browser.create env)) in
  let prof_env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Profiling)) in
  Alcotest.(check int) "profiling moves nothing" 0 (counted prof_env (drive prof_env));
  let profile = Pkru_safe.Env.recorded_profile prof_env in
  let env = ok (Pkru_safe.Env.create ~profile (Pkru_safe.Config.make Pkru_safe.Config.Mpk)) in
  Alcotest.(check bool) "enforced run moves sites" true (counted env (drive env) > 0)

let test_enforced_browser_without_profile_crashes () =
  let env =
    ok
      (Pkru_safe.Env.create ~profile:(Runtime.Profile.create ())
         (Pkru_safe.Config.make Pkru_safe.Config.Mpk))
  in
  let b = Browser.create env in
  match Browser.exec_script b "1 + 1;" with
  | exception Vmm.Fault.Unhandled { Vmm.Fault.kind = Vmm.Fault.Pkey_violation _; _ } -> ()
  | _ -> Alcotest.fail "engine read of unprofiled script buffer should crash"

let test_partial_profile_crashes_on_missed_flow () =
  (* Profile only a script that never touches attributes; then run one that
     does: the getAttribute buffer is a missed dataflow and must crash. *)
  let prof_env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Profiling)) in
  let pb = Browser.create prof_env in
  ignore (Browser.exec_script pb "1;");
  let profile = Pkru_safe.Env.recorded_profile prof_env in
  let env = ok (Pkru_safe.Env.create ~profile (Pkru_safe.Config.make Pkru_safe.Config.Mpk)) in
  let b = Browser.create env in
  Browser.load_page b {|<div data="x">y</div>|};
  (match Browser.exec_script b "1;" with
  | _ -> ());
  match
    Browser.exec_script b {|var d = domQueryTag("div")[0]; domGetAttribute(d, "data").charCodeAt(0);|}
  with
  | exception Vmm.Fault.Unhandled _ -> ()
  | _ -> Alcotest.fail "missed dataflow should crash the enforcement build"

let test_secret_planted () =
  let b = fresh Pkru_safe.Config.Base in
  Alcotest.(check int) "secret" Browser.secret_value (Browser.read_secret b)

let test_base_and_mpk_agree_on_output () =
  (* Functional equivalence across configurations: same scripts, same
     observable results. *)
  let base = fresh Pkru_safe.Config.Base in
  let base_out = drive_page base in
  let prof_env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Profiling)) in
  let pb = Browser.create prof_env in
  ignore (drive_page pb);
  let profile = Pkru_safe.Env.recorded_profile prof_env in
  let mpk_env = ok (Pkru_safe.Env.create ~profile (Pkru_safe.Config.make Pkru_safe.Config.Mpk)) in
  let mb = Browser.create mpk_env in
  Alcotest.(check (list string)) "identical output" base_out (drive_page mb)

let test_dom_remove_and_insert () =
  let b = fresh Pkru_safe.Config.Base in
  let dom = Browser.dom b in
  Browser.load_page b {|<ul><li id="a">1</li><li id="b">2</li><li id="c">3</li></ul>|};
  let ul = List.hd (Browser.Dom.query_tag dom "ul") in
  (match Browser.Dom.query_tag dom "li" with
  | [ _a; bn; c ] ->
    Browser.Dom.remove_child dom ~parent:ul ~child:bn;
    Alcotest.(check int) "two left" 2 (Browser.Dom.child_count dom ul);
    Alcotest.(check string) "serialize after removal"
      {|<li id="a">1</li><li id="c">3</li>|}
      (Browser.Dom.serialize dom ul);
    let fresh_li = Browser.Dom.create_element dom "li" in
    Browser.Dom.set_attribute dom fresh_li "id" "z";
    Browser.Dom.insert_before dom ~parent:ul ~child:fresh_li ~before:c;
    Alcotest.(check string) "inserted in the middle"
      {|<li id="a">1</li><li id="z"></li><li id="c">3</li>|}
      (Browser.Dom.serialize dom ul);
    Alcotest.(check bool) "insert attached child rejected" true
      (match Browser.Dom.insert_before dom ~parent:ul ~child:c ~before:c with
      | exception Invalid_argument _ -> true
      | () -> false)
  | _ -> Alcotest.fail "expected three li")

let test_dom_get_element_by_id_and_clone () =
  let b = fresh Pkru_safe.Config.Base in
  let dom = Browser.dom b in
  Browser.load_page b {|<div id="outer" k="v"><span id="inner">text</span></div>|};
  (match Browser.Dom.get_element_by_id dom "inner" with
  | Some n -> Alcotest.(check string) "found inner" "span" (Browser.Dom.tag_name dom n)
  | None -> Alcotest.fail "inner not found");
  Alcotest.(check bool) "missing id" true (Browser.Dom.get_element_by_id dom "nope" = None);
  let outer = Option.get (Browser.Dom.get_element_by_id dom "outer") in
  let clone = Browser.Dom.clone_subtree dom outer in
  Browser.Dom.append_child dom ~parent:(Browser.Dom.root dom) ~child:clone;
  Alcotest.(check (option string)) "attrs cloned" (Some "v")
    (Browser.Dom.get_attribute dom clone "k");
  Alcotest.(check string) "subtree cloned" "text" (Browser.Dom.text_content dom clone);
  Browser.Dom.set_attribute dom clone "k" "changed";
  Alcotest.(check (option string)) "original untouched" (Some "v")
    (Browser.Dom.get_attribute dom outer "k")

let test_new_bindings_from_script () =
  let b = fresh Pkru_safe.Config.Base in
  Browser.load_page b {|<ul><li id="x">a</li><li id="y">b</li></ul>|};
  ignore
    (Browser.exec_script b
       {|
var y = domGetElementById("y");
var ul = domParent(y);
print(domTagName(ul));
var clone = domCloneNode(y);
domInsertBefore(ul, clone, y);
print(domChildCount(ul));
domRemoveChild(ul, y);
print(domChildCount(ul));
print(domGetElementById("zzz") == null ? "none" : "some");
|});
  Alcotest.(check (list string)) "script output" [ "ul"; "3"; "2"; "none" ] (Browser.console b)

let test_event_listeners_and_bubbling () =
  let b = fresh Pkru_safe.Config.Base in
  Browser.load_page b {|<div id="outer"><p id="inner">x</p></div>|};
  ignore
    (Browser.exec_script b
       {|
var outer = domGetElementById("outer");
var inner = domGetElementById("inner");
domAddEventListener(inner, "click", function(n) { print("inner"); });
domAddEventListener(outer, "click", function(n) { print("outer"); });
domAddEventListener(outer, "other", function(n) { print("nope"); });
var fired = domDispatchEvent(inner, "click");
print("fired " + fired);
|});
  Alcotest.(check (list string)) "bubbles target-first, filters by name"
    [ "inner"; "outer"; "fired 2" ]
    (Browser.console b)

let test_event_callbacks_nest_transitions () =
  (* A listener that itself calls a binding creates the deeply nested
     transition chains of §5.3: script -> binding (dispatch) -> engine
     callback -> binding -> ... *)
  let prof_env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Profiling)) in
  let pb = Browser.create prof_env in
  let scenario browser =
    Browser.load_page browser {|<div id="t" data="payload">x</div>|};
    ignore
      (Browser.exec_script browser
         {|
var t = domGetElementById("t");
domAddEventListener(t, "ping", function(n) {
  print("data: " + domGetAttribute(n, "data"));
});
domDispatchEvent(t, "ping");
|});
    Browser.console browser
  in
  let expected = [ "data: payload" ] in
  Alcotest.(check (list string)) "profiling run" expected (scenario pb);
  let profile = Pkru_safe.Env.recorded_profile prof_env in
  let env = ok (Pkru_safe.Env.create ~profile (Pkru_safe.Config.make Pkru_safe.Config.Mpk)) in
  let b = Browser.create env in
  Alcotest.(check (list string)) "enforced run" expected (scenario b);
  (* Deep nesting: script(U) -> dispatch binding(T) -> callback(U) ->
     getAttribute binding(T) = depth 4 on the compartment stack. *)
  Alcotest.(check bool) "deep nesting observed" true
    (Runtime.Comp_stack.max_depth (Runtime.Gate.stack (Pkru_safe.Env.gate env)) >= 4)

let test_multiple_listeners_fire_in_order () =
  let b = fresh Pkru_safe.Config.Base in
  Browser.load_page b {|<div id="d">x</div>|};
  ignore
    (Browser.exec_script b
       {|
var d = domGetElementById("d");
domAddEventListener(d, "go", function(n) { print("first"); });
domAddEventListener(d, "go", function(n) { print("second"); });
domDispatchEvent(d, "go");
|});
  Alcotest.(check (list string)) "registration order" [ "first"; "second" ] (Browser.console b)

let test_gc_roots_protect_listener_captures () =
  (* A listener capturing engine data is held only by the browser's
     listener table; a collection between scripts must not sweep its
     captured values (the embedder roots them). *)
  let b = fresh Pkru_safe.Config.Base in
  Browser.load_page b {|<div id="d">x</div>|};
  ignore
    (Browser.exec_script b
       {|
var d = domGetElementById("d");
var captured = ["kept", "by", "listener"];
function bind_listener(c) {
  return function(n) { print(c.join("-")); };
}
domAddEventListener(d, "go", bind_listener(captured));
captured = null;
|});
  let freed = Browser.collect b in
  Alcotest.(check bool) (Printf.sprintf "collection ran (%d freed)" freed) true (freed >= 0);
  ignore (Browser.exec_script b {|domDispatchEvent(domGetElementById("d"), "go");|});
  Alcotest.(check (list string)) "captured data survived the GC" [ "kept-by-listener" ]
    (Browser.console b)

let suite =
  [
    Alcotest.test_case "html round-trip" `Quick test_html_roundtrip;
    Alcotest.test_case "html errors" `Quick test_html_errors;
    Alcotest.test_case "html canonical pages" `Quick test_html_pages;
    Alcotest.test_case "html error messages" `Quick test_html_error_messages;
    Alcotest.test_case "dom tree construction" `Quick test_dom_tree_construction;
    Alcotest.test_case "dom attributes" `Quick test_dom_attributes;
    Alcotest.test_case "dom memory in MT" `Quick test_dom_memory_in_trusted_pool;
    Alcotest.test_case "dom query + serialize" `Quick test_dom_query_and_serialize;
    Alcotest.test_case "dom remove children frees" `Quick test_dom_remove_children_frees;
    Alcotest.test_case "dom invalid handles" `Quick test_dom_invalid_handles;
    Alcotest.test_case "site counters match events" `Quick test_site_counters_match_events;
    Alcotest.test_case "script builds dom" `Quick test_script_builds_dom;
    Alcotest.test_case "script reads attrs + html" `Quick test_script_reads_attributes_and_html;
    Alcotest.test_case "script innerHTML assignment" `Quick test_script_inner_html_assignment;
    Alcotest.test_case "title bindings" `Quick test_title_bindings;
    Alcotest.test_case "profiling records shared sites" `Quick test_profiling_browser_records_shared_sites;
    Alcotest.test_case "enforced browser works" `Quick test_enforced_browser_works_with_profile;
    Alcotest.test_case "enforced browser without profile crashes" `Quick test_enforced_browser_without_profile_crashes;
    Alcotest.test_case "partial profile crashes" `Quick test_partial_profile_crashes_on_missed_flow;
    Alcotest.test_case "secret planted" `Quick test_secret_planted;
    Alcotest.test_case "base and mpk agree" `Quick test_base_and_mpk_agree_on_output;
    Alcotest.test_case "dom remove + insert" `Quick test_dom_remove_and_insert;
    Alcotest.test_case "dom byId + clone" `Quick test_dom_get_element_by_id_and_clone;
    Alcotest.test_case "new bindings from script" `Quick test_new_bindings_from_script;
    Alcotest.test_case "event listeners + bubbling" `Quick test_event_listeners_and_bubbling;
    Alcotest.test_case "event callbacks nest transitions" `Quick test_event_callbacks_nest_transitions;
    Alcotest.test_case "listeners fire in order" `Quick test_multiple_listeners_fire_in_order;
    Alcotest.test_case "gc roots protect listener captures" `Quick test_gc_roots_protect_listener_captures;
  ]
