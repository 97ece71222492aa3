(* Tests for the style parser and the layout pass — the Servo-flavoured
   substrate: boxes live in machine memory, and box data returned
   through the bindings is a shared cross-compartment flow. *)

let ok = function
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let fresh ?profile mode =
  let env = ok (Pkru_safe.Env.create ?profile (Pkru_safe.Config.make mode)) in
  Browser.create env

(* --- Style parsing --- *)

let test_style_parse () =
  let s = Browser.Style.parse "display:inline;width:100;height:20;margin:4;padding:2" in
  Alcotest.(check bool) "inline" true (s.Browser.Style.display = Browser.Style.Inline);
  Alcotest.(check (option int)) "width" (Some 100) s.Browser.Style.width;
  Alcotest.(check (option int)) "height" (Some 20) s.Browser.Style.height;
  Alcotest.(check int) "margin" 4 s.Browser.Style.margin;
  Alcotest.(check int) "padding" 2 s.Browser.Style.padding

let test_style_error_recovery () =
  (* CSS error handling: unknown properties and junk are skipped. *)
  let s = Browser.Style.parse "frobnicate:9;width:abc;;display:block;width:50;margin:-3" in
  Alcotest.(check (option int)) "last valid width wins" (Some 50) s.Browser.Style.width;
  Alcotest.(check int) "negative margin rejected" 0 s.Browser.Style.margin;
  Alcotest.(check bool) "block" true (s.Browser.Style.display = Browser.Style.Block)

let test_style_to_string_roundtrip () =
  let cases =
    [ "display:inline;width:100"; "width:50;height:20;margin:4;padding:2"; "display:none"; "" ]
  in
  List.iter
    (fun text ->
      let s = Browser.Style.parse text in
      let s' = Browser.Style.parse (Browser.Style.to_string s) in
      Alcotest.(check bool) ("round-trip " ^ text) true (s = s'))
    cases

(* --- Layout --- *)

let test_block_stacking () =
  let b = fresh Pkru_safe.Config.Base in
  let dom = Browser.dom b in
  Browser.load_page b
    {|<div style="height:30"></div><div style="height:50;margin:10"></div>|};
  let layout = Browser.Layout.reflow dom in
  (match Browser.Dom.query_tag dom "div" with
  | [ first; second ] ->
    let b1 = Option.get (Browser.Layout.box_of layout first) in
    let b2 = Option.get (Browser.Layout.box_of layout second) in
    Alcotest.(check int) "first at top" 0 b1.Browser.Layout.y;
    Alcotest.(check int) "first height" 30 b1.Browser.Layout.height;
    Alcotest.(check int) "second below first plus margin" 40 b2.Browser.Layout.y;
    Alcotest.(check int) "margins narrow the box" (800 - 20) b2.Browser.Layout.width;
    Alcotest.(check int) "document height stacks" (30 + 50 + 20) (Browser.Layout.document_height layout)
  | _ -> Alcotest.fail "two divs expected")

let test_nested_boxes_and_padding () =
  let b = fresh Pkru_safe.Config.Base in
  let dom = Browser.dom b in
  Browser.load_page b
    {|<div style="width:200;padding:10"><p style="height:40"></p></div>|};
  let layout = Browser.Layout.reflow dom in
  let div = List.hd (Browser.Dom.query_tag dom "div") in
  let p = List.hd (Browser.Dom.query_tag dom "p") in
  let outer = Option.get (Browser.Layout.box_of layout div) in
  let inner = Option.get (Browser.Layout.box_of layout p) in
  Alcotest.(check int) "outer width honoured" 200 outer.Browser.Layout.width;
  Alcotest.(check int) "outer wraps child + padding" (40 + 20) outer.Browser.Layout.height;
  Alcotest.(check int) "child starts after padding x" 10 inner.Browser.Layout.x;
  Alcotest.(check int) "child starts after padding y" 10 inner.Browser.Layout.y;
  Alcotest.(check int) "child fills content width" 180 inner.Browser.Layout.width

let test_text_line_model () =
  let b = fresh Pkru_safe.Config.Base in
  let dom = Browser.dom b in
  (* 90 chars -> 3 lines of 16 units. *)
  Browser.load_page b ("<p>" ^ String.make 90 'x' ^ "</p>");
  let layout = Browser.Layout.reflow dom in
  let p = List.hd (Browser.Dom.query_tag dom "p") in
  let box = Option.get (Browser.Layout.box_of layout p) in
  Alcotest.(check int) "three lines" 48 box.Browser.Layout.height

let test_display_none_subtree () =
  let b = fresh Pkru_safe.Config.Base in
  let dom = Browser.dom b in
  Browser.load_page b
    {|<div style="display:none"><p style="height:99"></p></div><div style="height:10"></div>|};
  let layout = Browser.Layout.reflow dom in
  let p = List.hd (Browser.Dom.query_tag dom "p") in
  Alcotest.(check bool) "hidden node has no box" true
    (Browser.Layout.box_of layout p = None);
  Alcotest.(check int) "hidden subtree takes no space" 10 (Browser.Layout.document_height layout)

let test_box_records_live_in_machine_memory () =
  let b = fresh Pkru_safe.Config.Base in
  let dom = Browser.dom b in
  Browser.load_page b {|<div style="height:5"></div>|};
  let layout = Browser.Layout.reflow dom in
  let div = List.hd (Browser.Dom.query_tag dom "div") in
  (match Browser.Layout.box_record_addr layout div with
  | Some addr -> Alcotest.(check bool) "box record in MT" true (Vmm.Layout.in_trusted addr)
  | None -> Alcotest.fail "no record");
  Alcotest.(check bool) "boxes for all laid-out nodes" true
    (Browser.Layout.boxes_computed layout >= 2)

(* --- Bindings + the compartment story --- *)

let layout_page = {|<div style="height:30"></div><div style="height:50"></div>|}

let layout_script =
  {|
var total = domReflow();
var divs = domQueryTag("div");
var box = domGetBox(divs[1]);
print(total + " / " + box);
|}

let test_layout_bindings () =
  let b = fresh Pkru_safe.Config.Base in
  Browser.load_page b layout_page;
  ignore (Browser.exec_script b layout_script);
  Alcotest.(check (list string)) "script sees layout" [ "80 / 0,30,800,50" ] (Browser.console b)

let test_layout_box_flow_profiles_and_enforces () =
  (* The box string is a shared allocation: profiling must find its site
     and the enforced build must serve it from MU. *)
  let prof_env = ok (Pkru_safe.Env.create (Pkru_safe.Config.make Pkru_safe.Config.Profiling)) in
  let pb = Browser.create prof_env in
  Browser.load_page pb layout_page;
  ignore (Browser.exec_script pb layout_script);
  let profile = Pkru_safe.Env.recorded_profile prof_env in
  Alcotest.(check bool) "box-buffer site profiled" true
    (Runtime.Profile.mem profile Browser.Sites.query_result);
  let b = fresh ~profile Pkru_safe.Config.Mpk in
  Browser.load_page b layout_page;
  ignore (Browser.exec_script b layout_script);
  Alcotest.(check (list string)) "enforced layout agrees" [ "80 / 0,30,800,50" ]
    (Browser.console b);
  (* Without the profile, reading the box buffer crashes. *)
  let denied = fresh ~profile:(Runtime.Profile.create ()) Pkru_safe.Config.Mpk in
  Browser.load_page denied layout_page;
  match Browser.exec_script denied layout_script with
  | exception Vmm.Fault.Unhandled _ -> ()
  | _ -> Alcotest.fail "unprofiled box read should crash"

let test_reflow_after_mutation () =
  let b = fresh Pkru_safe.Config.Base in
  Browser.load_page b {|<div style="height:10"></div>|};
  ignore
    (Browser.exec_script b
       {|
var before = domReflow();
var d = domCreateElement("div");
domSetAttribute(d, "style", "height:25");
domAppendChild(domRoot(), d);
var after = domReflow();
print(before + " -> " + after);
|});
  Alcotest.(check (list string)) "layout tracks the DOM" [ "10 -> 35" ] (Browser.console b)

let suite =
  [
    Alcotest.test_case "style parse" `Quick test_style_parse;
    Alcotest.test_case "style error recovery" `Quick test_style_error_recovery;
    Alcotest.test_case "style to_string round-trip" `Quick test_style_to_string_roundtrip;
    Alcotest.test_case "block stacking" `Quick test_block_stacking;
    Alcotest.test_case "nested boxes + padding" `Quick test_nested_boxes_and_padding;
    Alcotest.test_case "text line model" `Quick test_text_line_model;
    Alcotest.test_case "display:none" `Quick test_display_none_subtree;
    Alcotest.test_case "box records in machine memory" `Quick test_box_records_live_in_machine_memory;
    Alcotest.test_case "layout bindings" `Quick test_layout_bindings;
    Alcotest.test_case "box flow profiles + enforces" `Quick test_layout_box_flow_profiles_and_enforces;
    Alcotest.test_case "reflow after mutation" `Quick test_reflow_after_mutation;
  ]
