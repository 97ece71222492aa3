module Dom = Dom
module Html = Html
module Sites = Sites
module Style = Style
module Layout = Layout
module Selector = Selector

type selector_stats = {
  mutable sel_hits : int;
  mutable sel_misses : int;
  mutable sel_memo_evictions : int;
}

(* One node's listeners for one event, in registration order: the first
   [count] entries of [fns]. *)
type listeners = {
  event : string;
  mutable fns : Engine.Value.t array;
  mutable count : int;
}

type t = {
  env : Pkru_safe.Env.t;
  machine : Sim.Machine.t;
  dom : Dom.t;
  engine : Engine.t;
  mutable title : string;
  mutable last_layout : Layout.t option;
  listeners : listeners list Util.Int_table.t;
    (* node -> engine callbacks per event it has any for *)
  selectors : (string, Selector.compiled) Hashtbl.t;
    (* parse/compile cache keyed by selector source text; compiled
       matching performs identical charged DOM reads (see Selector), so
       the cache only saves host-side parsing and name resolution *)
  selector_cache : bool;
    (* off only in the differential tests, which assert cached and
       uncached queries simulate bit-identically *)
  split_memo : (string, string list) Hashtbl.t;
    (* class-value splits for compiled matching, keyed by content *)
  sel_stats : selector_stats;
}

(* Size bound on [split_memo].  When full, the memo is cleared; the
   evicted entries are added to [sel_memo_evictions] and counted into the
   machine's sink (if any) as [selector_memo_evict] -- a host-side
   counter only, never an event or a cycle. *)
let split_memo_cap = 4096

let secret_value = 42

let fail fmt = Format.kasprintf (fun msg -> raise (Engine.Eval.Script_error msg)) fmt

(* --- Conversions between engine values and browser data --- *)

let heap t = Engine.heap t.engine

let arg_string t v =
  match v with
  | Engine.Value.Str s -> Engine.Value.string_of_str (heap t) s
  | v -> fail "binding expected a string, got %s" (Engine.Value.type_name v)

let arg_handle v =
  match v with
  | Engine.Value.Handle h -> h
  | v -> fail "binding expected a node handle, got %s" (Engine.Value.type_name v)

(* Copy a trusted-side string into a fresh allocation from [site] and hand
   the engine the raw buffer — the cross-compartment flow under test. *)
let buffer_result t ~site text =
  let addr, len = Dom.text_to_buffer t.dom ~site text in
  Engine.Value.of_foreign_buffer ~addr ~len

(* The class-split memo is sound with no invalidation (splitting is a
   pure function of the value string) and is cleared when full so a
   long-lived page cannot grow it without bound.  Evictions are counted
   in the selector stats and into the sink (a host-side counter — no
   event, no cycle). *)
let split_classes t value =
  match Hashtbl.find_opt t.split_memo value with
  | Some parts -> parts
  | None ->
    let parts = Selector.split_on_whitespace value in
    if Hashtbl.length t.split_memo >= split_memo_cap then begin
      let evicted = Hashtbl.length t.split_memo in
      t.sel_stats.sel_memo_evictions <- t.sel_stats.sel_memo_evictions + evicted;
      (match t.machine.Sim.Machine.ctx.Telemetry.Ctx.sink with
      | Some sink -> Telemetry.Sink.incr sink ~by:evicted "selector_memo_evict"
      | None -> ());
      Hashtbl.reset t.split_memo
    end;
    Hashtbl.replace t.split_memo value parts;
    parts

(* --- The binding layer (the bindgen-generated Servo APIs) --- *)

let rec install_bindings t =
  (* Every binding is an exported T function: entering it from script code
     crosses the reverse gate. *)
  let bind name fn =
    Engine.register_host t.engine name (fun args ->
        Pkru_safe.Env.callback t.env (fun () ->
            (* A DOM call the DOM refuses (an unknown handle, a node
               attached twice, a cycle) is the script's error. *)
            match fn args with
            | v -> v
            | exception Invalid_argument msg -> fail "%s" msg))
  in
  bind "domRoot" (fun _ -> Engine.Value.Handle (Dom.root t.dom));
  bind "domCreateElement" (fun args ->
      match args with
      | [ tag ] -> Engine.Value.Handle (Dom.create_element t.dom (arg_string t tag))
      | _ -> fail "domCreateElement(tag)");
  bind "domCreateText" (fun args ->
      match args with
      | [ text ] -> Engine.Value.Handle (Dom.create_text t.dom (arg_string t text))
      | _ -> fail "domCreateText(text)");
  bind "domAppendChild" (fun args ->
      match args with
      | [ p; c ] ->
        Dom.append_child t.dom ~parent:(arg_handle p) ~child:(arg_handle c);
        Engine.Value.Null
      | _ -> fail "domAppendChild(parent, child)");
  bind "domSetAttribute" (fun args ->
      match args with
      | [ n; name; value ] ->
        Dom.set_attribute t.dom (arg_handle n) (arg_string t name) (arg_string t value);
        Engine.Value.Null
      | _ -> fail "domSetAttribute(node, name, value)");
  bind "domGetAttribute" (fun args ->
      match args with
      | [ n; name ] ->
        (match Dom.get_attribute t.dom (arg_handle n) (arg_string t name) with
        | Some value -> buffer_result t ~site:Sites.get_attribute value
        | None -> Engine.Value.Null)
      | _ -> fail "domGetAttribute(node, name)");
  bind "domTextContent" (fun args ->
      match args with
      | [ n ] ->
        buffer_result t ~site:Sites.text_content (Dom.text_content t.dom (arg_handle n))
      | _ -> fail "domTextContent(node)");
  bind "domSetText" (fun args ->
      match args with
      | [ n; text ] ->
        Dom.set_text t.dom (arg_handle n) (arg_string t text);
        Engine.Value.Null
      | _ -> fail "domSetText(node, text)");
  bind "domGetInnerHTML" (fun args ->
      match args with
      | [ n ] -> buffer_result t ~site:Sites.inner_html (Dom.serialize t.dom (arg_handle n))
      | _ -> fail "domGetInnerHTML(node)");
  bind "domSetInnerHTML" (fun args ->
      match args with
      | [ n; html ] ->
        set_inner_html t (arg_handle n) (arg_string t html);
        Engine.Value.Null
      | _ -> fail "domSetInnerHTML(node, html)");
  bind "domChildCount" (fun args ->
      match args with
      | [ n ] -> Engine.Value.Num (float_of_int (Dom.child_count t.dom (arg_handle n)))
      | _ -> fail "domChildCount(node)");
  bind "domRemoveChildren" (fun args ->
      match args with
      | [ n ] ->
        Dom.remove_children t.dom (arg_handle n);
        Engine.Value.Null
      | _ -> fail "domRemoveChildren(node)");
  bind "domQuery" (fun args ->
      match args with
      | [ selector_text ] ->
        let text = arg_string t selector_text in
        let nodes =
          if t.selector_cache then begin
            let compiled =
              match Hashtbl.find_opt t.selectors text with
              | Some c ->
                t.sel_stats.sel_hits <- t.sel_stats.sel_hits + 1;
                c
              | None ->
                t.sel_stats.sel_misses <- t.sel_stats.sel_misses + 1;
                let parsed =
                  try Selector.parse text
                  with Selector.Parse_error msg -> fail "domQuery: %s" msg
                in
                let c = Selector.compile parsed in
                Hashtbl.replace t.selectors text c;
                c
            in
            Selector.query_all_compiled ~split:(split_classes t) t.dom compiled
          end
          else begin
            let selector =
              try Selector.parse text
              with Selector.Parse_error msg -> fail "domQuery: %s" msg
            in
            Selector.query_all t.dom selector
          end
        in
        let arr = Engine.Value.arr_make (heap t) 0 in
        (match arr with
        | Engine.Value.Arr a ->
          List.iter (fun n -> Engine.Value.arr_push (heap t) a (Engine.Value.Handle n)) nodes
        | _ -> assert false);
        arr
      | _ -> fail "domQuery(selector)");
  bind "domQueryTag" (fun args ->
      match args with
      | [ tag ] ->
        let nodes = Dom.query_tag t.dom (arg_string t tag) in
        let arr = Engine.Value.arr_make (heap t) 0 in
        (match arr with
        | Engine.Value.Arr a ->
          List.iter
            (fun n -> Engine.Value.arr_push (heap t) a (Engine.Value.Handle n))
            nodes
        | _ -> assert false);
        arr
      | _ -> fail "domQueryTag(tag)");
  bind "domRemoveChild" (fun args ->
      match args with
      | [ p; c ] ->
        Dom.remove_child t.dom ~parent:(arg_handle p) ~child:(arg_handle c);
        Engine.Value.Null
      | _ -> fail "domRemoveChild(parent, child)");
  bind "domInsertBefore" (fun args ->
      match args with
      | [ p; c; b ] ->
        Dom.insert_before t.dom ~parent:(arg_handle p) ~child:(arg_handle c)
          ~before:(arg_handle b);
        Engine.Value.Null
      | _ -> fail "domInsertBefore(parent, child, before)");
  bind "domGetElementById" (fun args ->
      match args with
      | [ id ] ->
        (match Dom.get_element_by_id t.dom (arg_string t id) with
        | Some node -> Engine.Value.Handle node
        | None -> Engine.Value.Null)
      | _ -> fail "domGetElementById(id)");
  bind "domParent" (fun args ->
      match args with
      | [ n ] ->
        (match Dom.parent t.dom (arg_handle n) with
        | Some p -> Engine.Value.Handle p
        | None -> Engine.Value.Null)
      | _ -> fail "domParent(node)");
  bind "domTagName" (fun args ->
      match args with
      | [ n ] ->
        buffer_result t ~site:Sites.query_result (Dom.tag_name t.dom (arg_handle n))
      | _ -> fail "domTagName(node)");
  bind "domCloneNode" (fun args ->
      match args with
      | [ n ] -> Engine.Value.Handle (Dom.clone_subtree t.dom (arg_handle n))
      | _ -> fail "domCloneNode(node)");
  bind "domReflow" (fun args ->
      match args with
      | [] ->
        let layout = Layout.reflow t.dom in
        t.last_layout <- Some layout;
        Engine.Value.Num (float_of_int (Layout.document_height layout))
      | _ -> fail "domReflow()");
  bind "domGetBox" (fun args ->
      match args with
      | [ n ] ->
        let layout =
          match t.last_layout with
          | Some l -> l
          | None ->
            let l = Layout.reflow t.dom in
            t.last_layout <- Some l;
            l
        in
        (match Layout.box_of layout (arg_handle n) with
        | Some box ->
          buffer_result t ~site:Sites.query_result
            (Printf.sprintf "%d,%d,%d,%d" box.Layout.x box.Layout.y box.Layout.width
               box.Layout.height)
        | None -> Engine.Value.Null)
      | _ -> fail "domGetBox(node)");
  bind "domAddEventListener" (fun args ->
      match args with
      | [ n; name; (Engine.Value.Fun _ as callback) ] ->
        let name = arg_string t name in
        add_listener t (arg_handle n) name callback;
        Engine.Value.Null
      | _ -> fail "domAddEventListener(node, name, function)");
  bind "domDispatchEvent" (fun args ->
      match args with
      | [ n; name ] -> Engine.Value.Num (float_of_int (dispatch_event t (arg_handle n) (arg_string t name)))
      | _ -> fail "domDispatchEvent(node, name)");
  bind "domGetTitle" (fun args ->
      match args with
      | [] | [ _ ] -> buffer_result t ~site:Sites.title_buffer t.title
      | _ -> fail "domGetTitle()");
  bind "domSetTitle" (fun args ->
      match args with
      | [ v ] ->
        t.title <- arg_string t v;
        Engine.Value.Null
      | _ -> fail "domSetTitle(title)")

(* [callback] after [node]'s other listeners for [name]. *)
and add_listener t node name callback =
  let events = Util.Int_table.get t.listeners node in
  match List.find_opt (fun l -> String.equal l.event name) events with
  | Some l ->
    if l.count = Array.length l.fns then begin
      let bigger = Array.make (2 * l.count) callback in
      Array.blit l.fns 0 bigger 0 l.count;
      l.fns <- bigger
    end;
    l.fns.(l.count) <- callback;
    l.count <- l.count + 1
  | None ->
    Util.Int_table.replace t.listeners node ({ event = name; fns = [| callback |]; count = 1 } :: events)

(* The listeners registered when the dispatch reaches [node] fire, in
   registration order; the number fired is returned. *)
and fire_listeners t node name = function
  | [] -> 0
  | l :: rest when not (String.equal l.event name) -> fire_listeners t node name rest
  | l :: _ ->
    let fns = l.fns and count = l.count in
    for i = 0 to count - 1 do
      ignore
        (Pkru_safe.Env.ffi_call t.env (fun () ->
             Engine.Eval.call_function (Engine.evaluator t.engine) fns.(i)
               [ Engine.Value.Handle node ]))
    done;
    count

(* Event dispatch with bubbling: the browser (T) walks target -> root and
   fires each listener.  Every listener invocation re-enters the engine —
   a T->U transition nested inside whatever stack the script already built,
   exactly the callback pattern behind the paper's dom/jslib overheads
   (§5.3). *)
and dispatch_event t node name =
  let fired = fire_listeners t node name (Util.Int_table.get t.listeners node) in
  match Dom.parent t.dom node with
  | Some parent -> fired + dispatch_event t parent name
  | None -> fired

(* The parse comes first, so malformed markup leaves the node's subtree
   as it was. *)
and set_inner_html t node html =
  let trees = Html.parse html in
  Dom.remove_children t.dom node;
  build_trees t node trees

(* Each element is created, its attributes set in source order, appended,
   then its children built: recursion over the parsed lists, with no
   closure per node. *)
and build_trees t parent = function
  | [] -> ()
  | Html.Text text :: rest ->
    Dom.append_child t.dom ~parent ~child:(Dom.create_text t.dom text);
    build_trees t parent rest
  | Html.Element (tag, attrs, kids) :: rest ->
    let node = Dom.create_element t.dom tag in
    set_attributes t node attrs;
    Dom.append_child t.dom ~parent ~child:node;
    build_trees t node kids;
    build_trees t parent rest

and set_attributes t node = function
  | [] -> ()
  | (name, value) :: rest ->
    Dom.set_attribute t.dom node name value;
    set_attributes t node rest

let create ?engine_seed ?(selector_cache = true) env =
  let machine = Pkru_safe.Env.machine env in
  let t =
    {
      env;
      machine;
      dom = Dom.create env;
      engine = Engine.create ?seed:engine_seed env;
      title = "";
      last_layout = None;
      listeners = Util.Int_table.create ~dummy:[] 4;
      selectors = Hashtbl.create 16;
      selector_cache;
      split_memo = Hashtbl.create 64;
      sel_stats = { sel_hits = 0; sel_misses = 0; sel_memo_evictions = 0 };
    }
  in
  (* Plant the security experiment's secret at the paper's fixed address
     inside MT (allocated at program start, logged on exit). *)
  Sim.Machine.write_u64 machine Vmm.Layout.secret_addr secret_value;
  install_bindings t;
  (* Listener callbacks (and anything they capture) are embedder-held
     engine values: root them so engine collections cannot sweep them. *)
  Engine.add_gc_root t.engine (fun () ->
      let rec add fns i acc = if i < 0 then acc else add fns (i - 1) (fns.(i) :: acc) in
      Util.Int_table.fold
        (fun _ events acc -> List.fold_left (fun acc l -> add l.fns (l.count - 1) acc) acc events)
        t.listeners []);
  t

let env t = t.env
let dom t = t.dom
let engine t = t.engine

(* Workload-phase spans (see Engine.with_phase): page loads and script
   executions become causal roots, so every gate crossing and incident
   underneath them is attributed to the phase that drove it. *)
let with_phase t name f =
  let ctx = t.machine.Sim.Machine.ctx in
  match ctx.Telemetry.Ctx.sink with
  | None -> f ()
  | Some sink ->
    let cpu = t.machine.Sim.Machine.cpu.Sim.Cpu.id in
    let id =
      Telemetry.Sink.span_enter sink ~ts:(Sim.Machine.cycles t.machine) ~cpu
        ~kind:Telemetry.Span.Phase name
    in
    Fun.protect
      ~finally:(fun () ->
        match ctx.Telemetry.Ctx.sink with
        | None -> ()
        | Some sink ->
          Telemetry.Sink.span_exit sink ~ts:(Sim.Machine.cycles t.machine) ~cpu ~id ())
      f

let load_page t html =
  with_phase t "phase:load-page" (fun () ->
      build_trees t (Dom.root t.dom) (Html.parse html))

let exec_script_body ?tier t src =
  let len = String.length src in
  (* The script text is trusted-side data handed to the engine by pointer:
     the canonical shared allocation. *)
  let buf = Pkru_safe.Env.alloc t.env ~site:Sites.script_source (Int.max len 1) in
  if len > 0 then Sim.Machine.write_string t.machine buf src;
  let source =
    match Engine.Value.of_foreign_buffer ~addr:buf ~len with
    | Engine.Value.Str s -> s
    | _ -> assert false
  in
  Pkru_safe.Env.ffi_call t.env (fun () -> Engine.eval_source ?tier t.engine source)

let exec_script ?tier t src =
  with_phase t "phase:exec-script" (fun () -> exec_script_body ?tier t src)

let console t = Engine.take_output t.engine

let collect t = Engine.collect t.engine

let read_secret t = Sim.Machine.priv_read_u64 t.machine Vmm.Layout.secret_addr

let selector_stats t = t.sel_stats

let reset_selector_stats t =
  t.sel_stats.sel_hits <- 0;
  t.sel_stats.sel_misses <- 0;
  t.sel_stats.sel_memo_evictions <- 0
