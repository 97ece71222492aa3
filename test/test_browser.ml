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

(* --- DOM oracle ---

   Every DOM operation is a sequence of checked machine accesses,
   allocations and frees, all simulated behaviour.  Driven from the
   untrusted side of a profiling build, each access to a DOM record in
   MT is one [Mpk_fault] the profiler services, so the ordered event log
   spells out the whole access sequence.  These pins were taken from the
   list-walking, hash-indexed DOM and hold any rewrite to the same
   accesses, allocations and frees in the same order, the same final
   cycles and the same tree: a walk reads a node's whole sibling chain
   before it visits the first child, and reading the chain lazily while
   visiting reorders the log. *)

let dom_event_key (r : Telemetry.Event.record) =
  match r.Telemetry.Event.event with
  | Telemetry.Event.Mpk_fault { addr; _ } -> Some (Printf.sprintf "F%x" addr)
  | Telemetry.Event.Alloc { site; addr; size; _ } ->
    Some (Printf.sprintf "A%s:%x:%d" (Option.value site ~default:"-") addr size)
  | Telemetry.Event.Free { addr; _ } -> Some (Printf.sprintf "D%x" addr)
  | _ -> None

(* Runs [f] from U under a fresh sink; the step's log is the filtered
   events followed by [f]'s rendered result. *)
let dom_step b f =
  let env = Browser.env b in
  let sink = Telemetry.Sink.create ~capacity:(1 lsl 20) ~record_spans:false () in
  let result =
    Telemetry.Ctx.with_sink (Pkru_safe.Env.ctx env) sink (fun () ->
        Pkru_safe.Env.ffi_call env (fun () ->
            match f () with
            | r -> r
            | exception Browser.Html.Html_error msg -> "Html_error: " ^ msg
            | exception Invalid_argument msg -> "Invalid_argument: " ^ msg))
  in
  if Telemetry.Sink.dropped sink > 0 then Alcotest.fail "trace ring too small for the DOM log";
  let log = List.filter_map dom_event_key (Telemetry.Sink.events sink) @ [ "R" ^ result ] in
  (List.length log, Digest.to_hex (Digest.string (String.concat "\n" log)),
   Sim.Machine.cycles (Pkru_safe.Env.machine env))

let ints l = String.concat "," (List.map string_of_int l)

let dom_oracle_walk_page =
  {|<div id="main" class="box" style="margin:4;padding:2"><p class="a b">hello <span id="s1">world</span></p><ul><li>one</li><li class="b">two</li><li id="s1b" style="display:none">x</li></ul></div><div id="side" style="width:120">side <b>bold</b> text</div>|}
  ^ Workloads.Dom_scripts.page ~rows:16

(* (input, steps): each step is (name, thunk) run in order on one
   profiling browser; the loads are driven from U as well. *)
let dom_oracle_inputs () =
  let load page b () =
    Browser.load_page b page;
    string_of_int (Browser.Dom.node_count (Browser.dom b))
  in
  let loads =
    List.map (fun rows -> (Printf.sprintf "load rows %d" rows, Workloads.Dom_scripts.page ~rows))
      [ 16; 32; 64; 128; 256 ]
    @ List.map
        (fun s -> ("load " ^ s.Workloads.Browsing.session_name, s.Workloads.Browsing.page))
        Workloads.Browsing.sessions
  in
  List.map (fun (name, page) -> (name, fun b -> [ ("load", load page b) ])) loads
  @ [ ( "innerHTML",
        fun b ->
          let dom = Browser.dom b in
          let first_div () = List.hd (Browser.Dom.query_tag dom "div") in
          let set html () =
            Browser.set_inner_html b (first_div ()) html;
            string_of_int (Browser.Dom.node_count dom)
          in
          [ ("load", load (Workloads.Dom_scripts.page ~rows:16) b);
            ("set", set {|<p class="x" id="q">a<b>b</b>  </p><span>c</span><br/>|});
            ("replace", set "<i>only</i>");
            ("malformed", set "<p><b></p>");
            ("empty", set "") ] );
      ( "walks",
        fun b ->
          let dom = Browser.dom b in
          let root = Browser.Dom.root dom in
          let by_id id = Option.get (Browser.Dom.get_element_by_id dom id) in
          let sel text () = ints (Browser.Selector.query_all dom (Browser.Selector.parse text)) in
          let csel text () =
            ints
              (Browser.Selector.query_all_compiled ~split:Browser.Selector.split_on_whitespace dom
                 (Browser.Selector.compile (Browser.Selector.parse text)))
          in
          [ ("load", load dom_oracle_walk_page b);
            ("query_tag div", fun () -> ints (Browser.Dom.query_tag dom "div"));
            ("query_tag li", fun () -> ints (Browser.Dom.query_tag dom "li"));
            ("query_tag absent", fun () -> ints (Browser.Dom.query_tag dom "table"));
            ("children", fun () -> ints (Browser.Dom.children dom root));
            ("child_count", fun () -> string_of_int (Browser.Dom.child_count dom (by_id "main")));
            ("parent", fun () -> ints (Option.to_list (Browser.Dom.parent dom (by_id "s1"))));
            ("text_content root", fun () -> Browser.Dom.text_content dom root);
            ("text_content side", fun () -> Browser.Dom.text_content dom (by_id "side"));
            ("serialize root", fun () -> Browser.Dom.serialize dom root);
            ("by id s1", fun () -> ints (Option.to_list (Browser.Dom.get_element_by_id dom "s1")));
            ("by id absent", fun () -> ints (Option.to_list (Browser.Dom.get_element_by_id dom "zz")));
            ("selector div.row span", sel "div.row span");
            ("selector list", sel "#main p, li.b, #side b");
            ("selector *", sel "*");
            ("compiled div.row span", csel "div.row span");
            ("compiled list", csel "#main p, li.b, #side b");
            ("reflow", fun () ->
                let l = Browser.Layout.reflow dom in
                Printf.sprintf "%d/%d" (Browser.Layout.document_height l)
                  (Browser.Layout.boxes_computed l));
            ("clone main", fun () ->
                let c = Browser.Dom.clone_subtree dom (by_id "main") in
                Browser.Dom.append_child dom ~parent:root ~child:c;
                Browser.Dom.serialize dom c);
            ("insert_before", fun () ->
                let ul = List.hd (Browser.Dom.query_tag dom "ul") in
                let li = Browser.Dom.create_element dom "li" in
                Browser.Dom.insert_before dom ~parent:ul ~child:li ~before:(by_id "s1b");
                Browser.Dom.serialize dom ul);
            ("remove_child", fun () ->
                let ul = List.hd (Browser.Dom.query_tag dom "ul") in
                Browser.Dom.remove_child dom ~parent:ul ~child:(by_id "s1b");
                Browser.Dom.serialize dom ul);
            ("remove_children main", fun () ->
                Browser.Dom.remove_children dom (by_id "main");
                string_of_int (Browser.Dom.node_count dom));
            ("text_content after", fun () -> Browser.Dom.text_content dom root) ] ) ]

(* (input, log entries, digest of the logs, final cycles, digest of
   [serialize] of the root). *)
let dom_oracle_pins =
  [ ("load rows 16", 858, "a8b77229926bdd579533a178ed07494f", 1026300, "7bc86c4bc9bde9b61d5eeba7976f51d4");
    ("load rows 32", 1706, "3b56d972520a968731d3ad327171d3c3", 2039964, "27d154a8d239c39b28e331442cdf3065");
    ("load rows 64", 3402, "a80e80cfe76665779b9a56075594e85b", 4067292, "702d1846b621c101c60eaa7769759b88");
    ("load rows 128", 6794, "ac46fa00f5adfb287e3919cadedc87cc", 8121948, "d8b8e9dc350b2c148efe1f20b80323f5");
    ("load rows 256", 13578, "96b62f11df7c7a76bad204c68d6cb133", 16231740, "b9589d71e92b670d784a79716ea73cfc");
    ("load wpt", 434, "2e70b66d9a74dee98691e1f4314e206b", 519708, "106bd7bf798ccb8e4f2cfabb9d6985ee");
    ("load jquery", 646, "94a45f85c34f547c50b702b59cdb6673", 773004, "7dcf57dfee10b7f8c69aa1eac3055327");
    ("load webidl", 54, "a3449fbd700cc23daa998fbe0840bdf9", 65186, "51ca1a7aaf976ef6f93c48cdc72af213");
    ("load browse-search", 328, "c54e2ff06e3171b10ea6bb881bbf61c9", 393060, "8d54926b96507d441f917425f15abf53");
    ("load browse-wiki", 540, "8d71445e2a9e841c9eb82c67558d1b9e", 646356, "d02af4bbfbad658f239810a2f4b07f80");
    ("load browse-video", 222, "30c63c813c47ff618c4d61762d027a5c", 266412, "3532cc93bce636bbf584c9abe6c85a2e");
    ("load browse-selectors", 487, "599ebd437d5ea9390090bad9d9315d87", 583032, "0f77a1041e170f9669b29e7e1c89a8ab");
    ("innerHTML", 1669, "367981a390f6ed0b4f18e91de1344aea", 2107038, "a3ef063ad9c5e08980a3fb3b038bb89f");
    ("walks", 7087, "729e93b54da152770e9b301bfa6a0b96", 9496286, "73f86b6def31d3ae33fbb619670a52cc") ]

let test_dom_oracle () =
  let got =
    List.map
      (fun (name, steps) ->
        let b = fresh Pkru_safe.Config.Profiling in
        let logs = List.map (fun (step, f) -> (step, dom_step b f)) (steps b) in
        let entries = List.fold_left (fun n (_, (e, _, _)) -> n + e) 0 logs in
        let digest =
          Digest.to_hex
            (Digest.string
               (String.concat "\n" (List.map (fun (step, (e, d, c)) -> Printf.sprintf "%s %d %s %d" step e d c) logs)))
        in
        let cycles = Sim.Machine.cycles (Pkru_safe.Env.machine (Browser.env b)) in
        let dom = Browser.dom b in
        let html = Browser.Dom.serialize dom (Browser.Dom.root dom) in
        (name, (entries, (digest, (cycles, Digest.to_hex (Digest.string html))))))
      (dom_oracle_inputs ())
  in
  Alcotest.(check (list (pair string (pair int (pair string (pair int string))))))
    "ordered faults, allocations and frees; cycles; tree"
    (List.map (fun (n, e, d, c, h) -> (n, (e, (d, (c, h))))) dom_oracle_pins)
    got

(* --- Hierarchy checks ---

   Appending a node under its own descendant, or anything under a text
   node, is refused with host state alone: the refused call performs the
   reads of the checks before it (the child's parent link), no more, and
   leaves the tree as it was. *)

let script_error b src =
  match Browser.exec_script b src with
  | _ -> Alcotest.failf "accepted: %s" src
  | exception Engine.Eval.Script_error msg -> msg

let test_dom_rejects_cycles () =
  let b = fresh Pkru_safe.Config.Base in
  let dom = Browser.dom b in
  ignore
    (Browser.exec_script b
       {|var a = domCreateElement("div"); var c = domCreateElement("p");
domAppendChild(a, c); domAppendChild(c, domCreateText("x"));|});
  let a = 2 and c = 3 in
  let before = Browser.Dom.serialize dom a in
  Alcotest.(check string) "a's parent's child, appended under it" "Dom.append_child: the child is an ancestor of the parent"
    (script_error b {|domAppendChild(c, a);|});
  Alcotest.(check string) "the root under a descendant"
    "Dom.append_child: the child is an ancestor of the parent"
    (script_error b {|domAppendChild(domRoot(), a); domAppendChild(c, domRoot());|});
  Browser.Dom.detach dom ~parent:(Browser.Dom.root dom) ~child:a;
  Alcotest.(check string) "tree unchanged" before (Browser.Dom.serialize dom a);
  Alcotest.(check (option int)) "a still has no parent" None (Browser.Dom.parent dom a);
  Alcotest.(check (list int)) "a's children" [ c ] (Browser.Dom.children dom a);
  Alcotest.(check string) "text content terminates" "x" (Browser.Dom.text_content dom a);
  (* insert_before: [a] under its grandchild's parent [c], before the text. *)
  let txt = List.hd (Browser.Dom.children dom c) in
  Alcotest.check_raises "insert_before cycle"
    (Invalid_argument "Dom.insert_before: the child is an ancestor of the parent") (fun () ->
      Browser.Dom.insert_before dom ~parent:c ~child:a ~before:txt);
  Alcotest.(check string) "still unchanged" before (Browser.Dom.serialize dom a);
  (* The refused call costs what a refused self-append costs: one read. *)
  let cycles f =
    let c0 = Pkru_safe.Env.cycles (Browser.env b) in
    (try f () with Invalid_argument _ -> ());
    Pkru_safe.Env.cycles (Browser.env b) - c0
  in
  Alcotest.(check int) "no extra checked read"
    (cycles (fun () -> Browser.Dom.append_child dom ~parent:a ~child:a))
    (cycles (fun () -> Browser.Dom.append_child dom ~parent:c ~child:a))

let test_dom_rejects_text_parent () =
  let b = fresh Pkru_safe.Config.Base in
  let dom = Browser.dom b in
  Alcotest.(check string) "element under text" "Dom.append_child: a text node cannot have children"
    (script_error b {|var t = domCreateText("x"); var e = domCreateElement("b"); domAppendChild(t, e);|});
  ignore (Browser.exec_script b {|print(domChildCount(t)); print(domParent(e) == null ? "free" : "attached");|});
  Alcotest.(check (list string)) "text keeps no child" [ "0"; "free" ] (Browser.console b);
  Alcotest.(check string) "text under text" "Dom.append_child: a text node cannot have children"
    (script_error b {|domAppendChild(t, domCreateText("y"));|});
  Alcotest.(check int) "nothing attached" 0 (Browser.Dom.child_count dom 2);
  Alcotest.(check string) "text intact" "x" (Browser.Dom.text_of dom 2)

(* --- DOM model test ---

   Random operation sequences, invalid calls included, checked step by
   step against a pure tree model: children order, parent, attributes,
   text, node count and serialisation.  A refused call changes nothing. *)

type mnode = {
  m_tag : string; (* "" for a text node *)
  mutable m_text : string;
  mutable m_attrs : (string * string) list; (* stored order: newest first *)
  mutable m_kids : int list;
  mutable m_parent : int; (* 0 = none *)
}

type model = { nodes : (int, mnode) Hashtbl.t; mutable next : int }

type op =
  | Create of string
  | Create_text of string
  | Append of int * int
  | Insert of int * int * int
  | Remove of int * int
  | Remove_all of int
  | Detach of int * int
  | Set_attr of int * string * string
  | Set_text of int * string
  | Clone of int

let show_op = function
  | Create t -> Printf.sprintf "create %s" t
  | Create_text s -> Printf.sprintf "text %S" s
  | Append (p, c) -> Printf.sprintf "append %d %d" p c
  | Insert (p, c, x) -> Printf.sprintf "insert %d %d before %d" p c x
  | Remove (p, c) -> Printf.sprintf "remove %d %d" p c
  | Remove_all n -> Printf.sprintf "remove_children %d" n
  | Detach (p, c) -> Printf.sprintf "detach %d %d" p c
  | Set_attr (n, k, v) -> Printf.sprintf "set %d %s=%S" n k v
  | Set_text (n, s) -> Printf.sprintf "set_text %d %S" n s
  | Clone n -> Printf.sprintf "clone %d" n

exception Refused

let live m n = match Hashtbl.find_opt m.nodes n with Some x -> x | None -> raise Refused

let rec ancestor_or_self m anc n = n <> 0 && (n = anc || ancestor_or_self m anc (live m n).m_parent)

let rec free_model m n =
  List.iter (free_model m) (live m n).m_kids;
  Hashtbl.remove m.nodes n

let add_node m tag text =
  let id = m.next in
  m.next <- id + 1;
  Hashtbl.replace m.nodes id { m_tag = tag; m_text = text; m_attrs = []; m_kids = []; m_parent = 0 };
  id

let unlink m p c =
  let pn = live m p in
  pn.m_kids <- List.filter (fun k -> k <> c) pn.m_kids;
  (live m c).m_parent <- 0

let rec clone_model m n =
  let src = live m n in
  let id = add_node m src.m_tag src.m_text in
  (* A text node's clone is its text alone. *)
  if src.m_tag <> "" then (live m id).m_attrs <- src.m_attrs;
  List.iter
    (fun k ->
      let kc = clone_model m k in
      (live m kc).m_parent <- id;
      (live m id).m_kids <- (live m id).m_kids @ [ kc ])
    src.m_kids;
  id

(* The model's answer to [op]; raises [Refused] before changing anything. *)
let apply_model m = function
  | Create tag -> ignore (add_node m tag "")
  | Create_text s -> ignore (add_node m "" s)
  | Append (p, c) ->
    let pn = live m p and cn = live m c in
    if cn.m_parent <> 0 || p = c || pn.m_tag = "" || ancestor_or_self m c p then raise Refused;
    cn.m_parent <- p;
    pn.m_kids <- pn.m_kids @ [ c ]
  | Insert (p, c, x) ->
    let pn = live m p and cn = live m c and xn = live m x in
    if cn.m_parent <> 0 || xn.m_parent <> p || ancestor_or_self m c p then raise Refused;
    cn.m_parent <- p;
    pn.m_kids <- List.concat_map (fun k -> if k = x then [ c; x ] else [ k ]) pn.m_kids
  | Remove (p, c) ->
    ignore (live m p);
    if (live m c).m_parent <> p then raise Refused;
    unlink m p c;
    free_model m c
  | Remove_all n ->
    let nn = live m n in
    List.iter (free_model m) nn.m_kids;
    nn.m_kids <- []
  | Detach (p, c) ->
    ignore (live m p);
    if (live m c).m_parent <> p then raise Refused;
    unlink m p c
  | Set_attr (n, k, v) ->
    let nn = live m n in
    nn.m_attrs <-
      (if List.mem_assoc k nn.m_attrs then List.map (fun (k', v') -> (k', if k' = k then v else v')) nn.m_attrs
       else (k, v) :: nn.m_attrs)
  | Set_text (n, s) ->
    let nn = live m n in
    if nn.m_tag <> "" then raise Refused;
    nn.m_text <- s
  | Clone n -> ignore (clone_model m n)

let apply_dom dom = function
  | Create tag -> ignore (Browser.Dom.create_element dom tag)
  | Create_text s -> ignore (Browser.Dom.create_text dom s)
  | Append (p, c) -> Browser.Dom.append_child dom ~parent:p ~child:c
  | Insert (p, c, x) -> Browser.Dom.insert_before dom ~parent:p ~child:c ~before:x
  | Remove (p, c) -> Browser.Dom.remove_child dom ~parent:p ~child:c
  | Remove_all n -> Browser.Dom.remove_children dom n
  | Detach (p, c) -> Browser.Dom.detach dom ~parent:p ~child:c
  | Set_attr (n, k, v) -> Browser.Dom.set_attribute dom n k v
  | Set_text (n, s) -> Browser.Dom.set_text dom n s
  | Clone n -> ignore (Browser.Dom.clone_subtree dom n)

let rec serialize_model m buf n =
  let nn = live m n in
  if nn.m_tag = "" then Buffer.add_string buf nn.m_text
  else begin
    Printf.bprintf buf "<%s" nn.m_tag;
    List.iter (fun (k, v) -> Printf.bprintf buf " %s=\"%s\"" k v) nn.m_attrs;
    Buffer.add_char buf '>';
    List.iter (serialize_model m buf) nn.m_kids;
    Printf.bprintf buf "</%s>" nn.m_tag
  end

let model_attr_names = [ "id"; "class"; "x" ]

(* Every observable of every live node agrees with the model. *)
let agrees dom m =
  Browser.Dom.node_count dom = Hashtbl.length m.nodes
  && Hashtbl.fold
       (fun n nn ok ->
         ok
         && Browser.Dom.children dom n = nn.m_kids
         && Browser.Dom.parent dom n = (if nn.m_parent = 0 then None else Some nn.m_parent)
         && Browser.Dom.is_text dom n = (nn.m_tag = "")
         && (nn.m_tag = "" || Browser.Dom.tag_name dom n = nn.m_tag)
         && (nn.m_tag <> "" || Browser.Dom.text_of dom n = nn.m_text)
         && List.for_all
              (fun k -> Browser.Dom.get_attribute dom n k = List.assoc_opt k nn.m_attrs)
              model_attr_names
         && Browser.Dom.serialize dom n
            = (let buf = Buffer.create 64 in
               List.iter (serialize_model m buf) nn.m_kids;
               Buffer.contents buf))
       m.nodes true

let gen_ops =
  let open QCheck.Gen in
  (* Handles: the root, recent ids (live or freed), and never-issued ones. *)
  let handle = frequency [ (1, return 1); (8, int_range 1 24); (1, oneofl [ 0; -1; 999 ]) ] in
  let word = oneofl [ ""; "a"; "bb"; "item 1" ] in
  let op =
    frequency
      [ (3, map (fun t -> Create t) (oneofl [ "div"; "p"; "span" ]));
        (2, map (fun s -> Create_text s) word);
        (6, map2 (fun p c -> Append (p, c)) handle handle);
        (2, map3 (fun p c x -> Insert (p, c, x)) handle handle handle);
        (1, map2 (fun p c -> Remove (p, c)) handle handle);
        (1, map (fun n -> Remove_all n) handle);
        (1, map2 (fun p c -> Detach (p, c)) handle handle);
        (2, map3 (fun n k v -> Set_attr (n, k, v)) handle (oneofl model_attr_names) word);
        (1, map2 (fun n s -> Set_text (n, s)) handle word);
        (1, map (fun n -> Clone n) handle) ]
  in
  list_size (int_range 1 60) op

let prop_dom_model =
  QCheck.Test.make ~count:200 ~name:"dom agrees with a tree model"
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_op ops)) gen_ops)
    (fun ops ->
      let dom = Browser.dom (fresh Pkru_safe.Config.Base) in
      let m = { nodes = Hashtbl.create 16; next = 2 } in
      Hashtbl.replace m.nodes 1 { m_tag = "html"; m_text = ""; m_attrs = []; m_kids = []; m_parent = 0 };
      List.for_all
        (fun op ->
          let expect_ok = match apply_model m op with () -> true | exception Refused -> false in
          let dom_ok = match apply_dom dom op with () -> true | exception Invalid_argument _ -> false in
          if expect_ok <> dom_ok then
            QCheck.Test.fail_reportf "%s: model %b, dom %b" (show_op op) expect_ok dom_ok;
          if not (agrees dom m) then QCheck.Test.fail_reportf "state differs after %s" (show_op op);
          true)
        ops)

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
    Alcotest.test_case "dom oracle" `Quick test_dom_oracle;
    Alcotest.test_case "dom rejects cycles" `Quick test_dom_rejects_cycles;
    Alcotest.test_case "dom rejects text parents" `Quick test_dom_rejects_text_parent;
    QCheck_alcotest.to_alcotest prop_dom_model;
  ]
