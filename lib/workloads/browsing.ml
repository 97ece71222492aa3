type session = {
  session_name : string;
  page : string;
  scripts : string list;
}

(* Web-platform-test style: structural DOM conformance checks. *)
let wpt =
  {
    session_name = "wpt";
    page = Dom_scripts.page ~rows:8;
    scripts =
      [
        {|
var root = domRoot();
var d = domCreateElement("div");
domSetAttribute(d, "id", "wpt-target");
domAppendChild(root, d);
var back = domGetElementById("wpt-target");
print(back == null ? "FAIL" : "PASS: byId");
print(domTagName(back));
|};
        {|
var host = domGetElementById("wpt-target");
domSetInnerHTML(host, "<span>a</span><span>b</span>");
print("children: " + domChildCount(host));
var html = domGetInnerHTML(host);
print("roundtrip: " + (html.indexOf("<span>") == 0 ? "PASS" : "FAIL"));
|};
      ];
  }

(* jQuery style: query everything, toggle classes, read text. *)
let jquery =
  {
    session_name = "jquery";
    page = Dom_scripts.page ~rows:12;
    scripts =
      [
        {|
var rows = domQueryTag("div");
for (var i = 0; i < rows.length; i = i + 1) {
  domSetAttribute(rows[i], "class", i % 2 == 0 ? "even" : "odd");
}
var cls = domGetAttribute(rows[0], "class");
print("first class: " + cls);
|};
        {|
var spans = domQueryTag("span");
var total = 0;
for (var i = 0; i < spans.length; i = i + 1) {
  total = total + domTextContent(spans[i]).length;
}
print("text total: " + total);
|};
      ];
  }

(* WebIDL style: exercises the binding signatures themselves. *)
let webidl =
  {
    session_name = "webidl";
    page = {|<div id="host" data="idl"><p>payload</p></div>|};
    scripts =
      [
        {|
var host = domGetElementById("host");
var clone = domCloneNode(host);
domAppendChild(domRoot(), clone);
print("cloned data: " + domGetAttribute(clone, "data"));
var parent = domParent(clone);
print("parent tag: " + domTagName(parent));
domRemoveChild(parent, clone);
print("after remove: " + domQueryTag("div").length);
|};
      ];
  }

(* Selenium-style browsing sessions over "common web pages". *)
let browse name rows story =
  {
    session_name = "browse-" ^ name;
    page = Dom_scripts.page ~rows;
    scripts = [ story ];
  }

let browse_search =
  browse "search" 6
    {|
domSetTitle("search results");
var q = domCreateElement("input");
domAppendChild(domRoot(), q);
domSetAttribute(q, "value", "pkru safe");
var results = domQueryTag("div");
print(domGetTitle() + ": " + results.length + " results for " + domGetAttribute(q, "value"));
|}

let browse_wiki =
  browse "wiki" 10
    {|
var paras = domQueryTag("span");
var text = "";
for (var i = 0; i < paras.length && i < 3; i = i + 1) {
  text = text + domTextContent(paras[i]);
}
print("article preview: " + text.substring(0, 12));
|}

let browse_video =
  browse "video" 4
    {|
var player = domCreateElement("video");
domAppendChild(domRoot(), player);
var ticks = 0;
for (var t = 0; t < 12; t = t + 1) {
  domSetAttribute(player, "time", "" + t);
  ticks = ticks + domGetAttribute(player, "time").length;
}
print("played, ticks " + ticks);
|}

(* Selector-heavy session: the jQuery hot path through domQuery. *)
let browse_selectors =
  {
    session_name = "browse-selectors";
    page = Dom_scripts.page ~rows:9;
    scripts =
      [
        {|
var rows = domQuery("div.row");
var spans = domQuery("div.row span");
domSetAttribute(rows[0], "class", "row lead");
var leads = domQuery(".lead, span");
print("rows " + rows.length + ", spans " + spans.length + ", leads " + leads.length);
print(domGetAttribute(domQuery(".lead")[0], "data"));
|};
      ];
  }

let sessions =
  [ wpt; jquery; webidl; browse_search; browse_wiki; browse_video; browse_selectors ]

let collect () =
  let corpus = Runtime.Corpus.create () in
  List.iter
    (fun session ->
      let browser =
        Runner.load ~profile:(Runtime.Profile.create ())
          (Pkru_safe.Config.make Pkru_safe.Config.Profiling)
          (Bench_def.bench ~page:session.page session.session_name "")
      in
      List.iter (fun script -> ignore (Browser.exec_script browser script)) session.scripts;
      Runtime.Corpus.add_run corpus ~name:session.session_name
        (Pkru_safe.Env.recorded_profile (Browser.env browser)))
    sessions;
  corpus

let deployment_profile () = Runtime.Corpus.merged (collect ())
