let d = string_of_int

let page ~rows =
  let buf = Buffer.create (rows * 64) in
  Buffer.add_string buf "<body>";
  for i = 0 to rows - 1 do
    Buffer.add_string buf
      (Printf.sprintf "<div class=\"row\" data=\"cell%d\"><span>item %d</span></div>" i i)
  done;
  Buffer.add_string buf "</body>";
  Buffer.contents buf

let dom_attr ~iters =
  {|
var iters = |} ^ d iters ^ {|;
var node = domQueryTag("div")[0];
var check = 0;
for (var i = 0; i < iters; i = i + 1) {
  domSetAttribute(node, "data", "v" + (i & 15));
  var back = domGetAttribute(node, "data");
  var t = 0;
  for (var j = 0; j < 2; j = j + 1) { t = (t * 3 + back.charCodeAt(0) + j) & 1023; }
  check = (check + back.charCodeAt(1) + t) & 65535;
}
print("domattr:" + check);
|}

let dom_create ~iters =
  {|
var iters = |} ^ d iters ^ {|;
var root = domRoot();
var host = domCreateElement("section");
domAppendChild(root, host);
var check = 0;
for (var i = 0; i < iters; i = i + 1) {
  var div = domCreateElement("div");
  domAppendChild(host, div);
  var n = domChildCount(host);
  check = check + n;
  var t = 0;
  for (var j = 0; j < 12; j = j + 1) { t = (t * 5 + n + j) & 4095; }
  check = (check + t) & 65535;
  if (n >= 8) { domRemoveChildren(host); }
}
print("domcreate:" + check);
|}

let dom_query ~iters =
  {|
var iters = |} ^ d iters ^ {|;
var check = 0;
for (var i = 0; i < iters; i = i + 1) {
  var divs = domQueryTag("div");
  var spans = domQueryTag("span");
  check = (check + divs.length + spans.length) & 65535;
}
print("domquery:" + check);
|}

let dom_html ~iters =
  {|
var iters = |} ^ d iters ^ {|;
var node = domQueryTag("div")[0];
var check = 0;
for (var i = 0; i < iters; i = i + 1) {
  var html = domGetInnerHTML(node);
  check = (check + html.charCodeAt(i % html.length)) & 65535;
}
print("domhtml:" + check);
|}

let dom_traverse ~iters =
  {|
var iters = |} ^ d iters ^ {|;
var root = domRoot();
var row = domQueryTag("div")[0];
var check = 0;
for (var i = 0; i < iters; i = i + 1) {
  var txt = domTextContent(root);
  var data = domGetAttribute(row, "data");
  check = (check + txt.length + txt.charCodeAt(i % txt.length) + data.charCodeAt(0)) & 65535;
}
print("domtraverse:" + check);
|}

let jslib_toggle ~iters =
  {|
var iters = |} ^ d iters ^ {|;
var rows = domQuery("div.row");
var check = 0;
for (var i = 0; i < iters; i = i + 1) {
  var node = rows[i % rows.length];
  domSetAttribute(node, "class", (i & 1) == 0 ? "row active" : "row");
  var cls = domGetAttribute(node, "class");
  var t = 0;
  for (var j = 0; j < 4; j = j + 1) { t = (t * 7 + cls.charCodeAt(0) + j) & 4095; }
  check = (check + cls.length + t) & 65535;
}
print("jslibtoggle:" + check);
|}

let jslib_build ~iters =
  {|
var iters = |} ^ d iters ^ {|;
var root = domRoot();
var host = domCreateElement("ul");
domAppendChild(root, host);
var check = 0;
for (var i = 0; i < iters; i = i + 1) {
  var markup = "";
  for (var j = 0; j < 4; j = j + 1) {
    markup = markup + "<li id=\"it" + j + "\">entry " + j + "</li>";
  }
  domSetInnerHTML(host, markup);
  check = (check + domChildCount(host)) & 65535;
}
print("jslibbuild:" + check);
|}

let dom_style ~iters =
  {|
var iters = |} ^ d iters ^ {|;
var rows = domQueryTag("div");
var check = 0;
for (var i = 0; i < iters; i = i + 1) {
  var node = rows[i % rows.length];
  domSetAttribute(node, "style", "height:" + (10 + (i & 7)) + ";margin:" + (i & 3));
  var total = domReflow();
  var box = domGetBox(node);
  check = (check + total + box.charCodeAt(0)) & 65535;
}
print("domstyle:" + check);
|}

let dom_events ~iters =
  {|
var iters = |} ^ d iters ^ {|;
var rows = domQueryTag("div");
var hits = 0;
for (var i = 0; i < rows.length; i = i + 1) {
  domAddEventListener(rows[i], "tick", function(n) {
    var d = domGetAttribute(n, "data");
    var t = 0;
    for (var j = 0; j < 3; j = j + 1) { t = (t * 5 + d.charCodeAt(0) + j) & 1023; }
    hits = hits + d.length + (t & 1);
  });
}
var fired = 0;
for (var i = 0; i < iters; i = i + 1) {
  fired = fired + domDispatchEvent(rows[i % rows.length], "tick");
}
print("domevents:" + fired + ":" + hits);
|}

let jslib_select ~iters =
  {|
var iters = |} ^ d iters ^ {|;
var check = 0;
for (var i = 0; i < iters; i = i + 1) {
  check = (check + domQuery(".row").length
                 + domQuery("div span").length
                 + domQuery("div.row, span").length) & 65535;
}
print("jslibselect:" + check);
|}

let gate_bound = Bench_def.bench ~page:(page ~rows:8) "gate-bound" (dom_attr ~iters:120)
