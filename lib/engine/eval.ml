exception Script_error of string

let () =
  Printexc.register_printer (function
    | Script_error msg -> Some ("Eval.Script_error: " ^ msg)
    | _ -> None)

type host = Value.t list -> Value.t

type scope = {
  mutable vals : Value.t array;
      (* static frame: slot i holds [layout.(i)], [unbound] until declared;
         dynamic scope: slot i holds the i-th name declared *)
  kind : kind;
  mutable decls : int;
      (* names bound so far: a cached walk that skipped this scope is
         valid while it is unchanged (no new shadowing binding) *)
  parent : scope option;
  origin : int;
      (* shared by the dynamic scopes minted at one closure-call site (0 =
         untracked), whose declarations come in a fixed order, so
         (origin, decls) fixes every slot's name: the slot cache's key *)
}

and kind =
  | Static of string array (* an AST-tier frame: its site's layout, fixed at compile time *)
  | Dynamic of (string, int) Hashtbl.t (* name -> slot *)

(* A function literal's code: compiled on first call, then shared by every
   closure minted at its site. *)
and func = {
  f_params : string list;
  f_body : Ast.stmt list;
  f_code : code Lazy.t;
}

(* A compiled body and its call frame: every call mints a frame of
   [c_kind]'s layout and binds parameter i into slot [c_params.(i)]. *)
and code = {
  c_kind : kind;
  c_params : int array;
  c_body : t -> scope -> unit;
}

and closure = {
  c_func : func;
  c_scope : scope;
}

and ic_stats = {
  mutable var_hits : int;
  mutable var_misses : int;
}

and t = {
  heap : Value.heap;
  machine : Sim.Machine.t;
  globals : scope;
  hosts : (string, host) Hashtbl.t;
  mutable closures : closure array;
  mutable nclosures : int;
  rng : Util.Rng.t;
  mutable output : string list; (* reversed *)
  mutable fuel : int;
  mutable steps : int;
  mutable depth : int; (* script calls in progress; see [max_call_depth] *)
  mutable gc_roots : (unit -> Value.t list) list;
  mutable origin_counter : int;
      (* per-evaluator, so scope-origin ids don't depend on how many other
         sessions ran first in the process (fleet order-independence) *)
  ic : ic_stats;
  unbound : Value.t; (* an undeclared slot, and a lookup's "no binding": no script makes it *)
  mutable yield_hook : (unit -> unit) option;
      (* fleet scheduling only: called once per tick, after the charge.
         Charges nothing and emits nothing itself, so installing a hook
         cannot perturb simulated cycles/transitions/traces; [None] costs
         one load + one branch (sink discipline). *)
}

(* Non-local control flow inside function bodies. *)
exception Return_exc of Value.t
exception Break_exc
exception Continue_exc

let dynamic_scope ~origin ~size parent =
  { vals = [||]; kind = Dynamic (Hashtbl.create size); decls = 0; parent; origin }

let create ?(seed = 1) ?(fuel = 200_000_000) heap =
  {
    heap;
    machine = Pkru_safe.Env.machine (Value.env heap);
    globals = dynamic_scope ~origin:0 ~size:64 None;
    hosts = Hashtbl.create 32;
    closures = [||];
    nclosures = 0;
    rng = Util.Rng.create seed;
    output = [];
    fuel;
    steps = 0;
    depth = 0;
    gc_roots = [];
    origin_counter = 0;
    ic = { var_hits = 0; var_misses = 0 };
    unbound = Value.Host "<unbound>";
    yield_hook = None;
  }

let heap t = t.heap

let register_host t name fn = Hashtbl.replace t.hosts name fn

(* Origins for call-site-minted scopes (see [scope]); 0 means untracked.
   Counted per evaluator: two sessions produce the same ids whether they
   run sequentially or interleaved. *)
let fresh_origin t =
  t.origin_counter <- t.origin_counter + 1;
  t.origin_counter

(* [var name = v] in a dynamic scope (an AST-tier frame declares by slot,
   see [declare_slot]). *)
let declare scope name v =
  match scope.kind with
  | Static _ -> invalid_arg "Eval.declare: a static frame declares by slot"
  | Dynamic vars ->
    (match Hashtbl.find_opt vars name with
    | Some i -> scope.vals.(i) <- v
    | None ->
      let n = scope.decls in
      if n >= Array.length scope.vals then begin
        let bigger = Array.make (max 4 (2 * n)) v in
        Array.blit scope.vals 0 bigger 0 n;
        scope.vals <- bigger
      end;
      scope.vals.(n) <- v;
      Hashtbl.replace vars name n;
      scope.decls <- n + 1)

let set_global t name v = declare t.globals name v

let take_output t =
  let lines = List.rev t.output in
  t.output <- [];
  lines

let steps t = t.steps

let fail fmt = Format.kasprintf (fun msg -> raise (Script_error msg)) fmt

(* Script calls nest on the host stack, a few hundred bytes per level
   on every tier: this bound keeps a runaway recursion a script error,
   far inside OCaml's default stack, and far above what any registered
   benchmark reaches.  Any other exception out of a call aborts the whole
   run, so only the normal and [return] exits count the depth back down,
   and a run ([run_program], [start_run]) resets it. *)
let max_call_depth = 10_000

let count_call t =
  if t.depth >= max_call_depth then fail "maximum call stack size exceeded";
  t.depth <- t.depth + 1

let leave_call t = t.depth <- t.depth - 1

let[@inline never] tick_hooks cpu n = Sim.Cpu.tick_hooks cpu n

(* [Sim.Cpu.charge], inlined: that function is the definition of a
   charge.  Every AST node ticks, and a dev build compiles a call into
   another module as an unknown call, so the clock is bumped by field
   access here and only the armed telemetry hooks call out. *)
let[@inline] charge t n =
  let cpu = t.machine.Sim.Machine.cpu in
  cpu.Sim.Cpu.cycles <- cpu.Sim.Cpu.cycles + n;
  if cpu.Sim.Cpu.ctx.Telemetry.Ctx.hooked then tick_hooks cpu n

let tick t n =
  t.steps <- t.steps + 1;
  t.fuel <- t.fuel - 1;
  if t.fuel <= 0 then fail "script ran out of fuel";
  charge t n;
  match t.yield_hook with None -> () | Some hook -> hook ()

let set_yield_hook t hook = t.yield_hook <- hook

let add_closure t c =
  if t.nclosures >= Array.length t.closures then begin
    let bigger = Array.make (max 16 (2 * t.nclosures)) c in
    Array.blit t.closures 0 bigger 0 t.nclosures;
    t.closures <- bigger
  end;
  t.closures.(t.nclosures) <- c;
  t.nclosures <- t.nclosures + 1;
  t.nclosures - 1

(* [name]'s slot in a frame layout, or -1. *)
let rec layout_index layout name i =
  if i >= Array.length layout then -1
  else if String.equal layout.(i) name then i
  else layout_index layout name (i + 1)

(* The slot [name] is bound in within [s], or -1 (a static frame: only
   when a walk above a call frame passes it). *)
let find_slot t s name =
  match s.kind with
  | Dynamic vars -> Option.value (Hashtbl.find_opt vars name) ~default:(-1)
  | Static layout ->
    let i = layout_index layout name 0 in
    if i >= 0 && s.vals.(i) != t.unbound then i else -1

(* The value [name] resolves to from [s] ([t.unbound]: none), charging 2
   cycles per level probed. *)
let rec lookup_name t s name =
  charge t 2;
  let i = find_slot t s name in
  if i >= 0 then s.vals.(i)
  else match s.parent with Some p -> lookup_name t p name | None -> t.unbound

let rec assign_name t s name v =
  let i = find_slot t s name in
  if i >= 0 then (s.vals.(i) <- v; true)
  else match s.parent with Some p -> assign_name t p name v | None -> false

(* --- Variable resolution and inline caches (DESIGN.md §11) ---

   AST-tier identifiers resolve through static frames below their
   function's call frame ([static_lookup]) and a per-site {!walk} cache
   above it, anchored on the call frame's parent.  Bytecode-tier sites
   put a slot cache (scopes of one [origin]) and a {e full} walk cache
   (anchored on the innermost scope itself) in front of a real,
   charged probe of the innermost scope and the walk cache above it.
   Every hit charges what the walk it elides would have charged.  After
   [streak_limit] consecutive misses a site stops refilling and walks. *)

let ic_stats t = t.ic

let reset_ic_stats t =
  t.ic.var_hits <- 0;
  t.ic.var_misses <- 0

(* A cached walk: valid while its start is physically [anchor] and no
   scope in [path] (the ones it skipped, with their [decls] at fill time)
   has declared a new name since, so nothing can shadow the binding at
   slot [idx] of [holder]. *)
type walk = {
  mutable anchor : scope;
  mutable holder : scope;
  mutable idx : int;
  mutable path : (scope * int) array;
}

type var_site = {
  vsite_name : string;
  mutable above : walk option; (* started above the innermost static or probed level *)
  mutable full : walk option; (* bytecode tiers: started at the innermost scope *)
  (* slot cache, keyed on the scope's call-site origin (0 = empty) *)
  mutable vslot_origin : int;
  mutable vslot_decls : int;
  mutable vslot_idx : int;
  mutable vsite_streak : int; (* consecutive misses; negative = site disabled *)
  vsite_counted : bool; (* hits and misses feed [ic_stats] (bytecode-tier sites only) *)
}

let streak_limit = 32

let make_site ~counted name =
  { vsite_name = name; above = None; full = None; vslot_origin = 0; vslot_decls = 0;
    vslot_idx = 0; vsite_streak = 0; vsite_counted = counted }

let var_site name = make_site ~counted:true name

let count_hit t site =
  if site.vsite_counted then t.ic.var_hits <- t.ic.var_hits + 1;
  site.vsite_streak <- 0

let count_miss t site = if site.vsite_counted then t.ic.var_misses <- t.ic.var_misses + 1

(* A direct recursion: [Array.for_all]'s loop closure would allocate on
   every cache hit. *)
let rec path_valid path i =
  i >= Array.length path
  ||
  let s, d = path.(i) in
  s.decls = d && path_valid path (i + 1)

let walk_valid w start =
  match w with
  | Some w -> w.anchor == start && path_valid w.path 0
  | None -> false

(* A hit charges 2 per scope the walk probed: those it skipped and the
   holder. *)
let walk_levels w = match w with Some w -> Array.length w.path + 1 | None -> 0
let walk_get t w = match w with Some w -> w.holder.vals.(w.idx) | None -> t.unbound
let walk_set w v = match w with Some w -> w.holder.vals.(w.idx) <- v | None -> ()

(* [w] refilled in place; a site's first fill makes its walk. *)
let walk_fill w start holder idx path =
  match w with
  | Some r ->
    r.anchor <- start;
    r.holder <- holder;
    r.idx <- idx;
    r.path <- path;
    w
  | None -> Some { anchor = start; holder; idx; path }

(* The walk from [start] for [site.vsite_name], charging 2 per level when
   [charged] (lookup semantics; assignment charges nothing): [true] with
   the binding in [site.above], refilled from [start] — and, when [full],
   [site.full] from [cur], whose own probe missed just before. *)
let[@inline never] resolve_above t ~charged ~full site cur start =
  if site.vsite_streak >= 0 && walk_valid site.above start then begin
    count_hit t site;
    if charged then charge t (2 * walk_levels site.above);
    true
  end
  else begin
    count_miss t site;
    if site.vsite_streak >= 0 then begin
      site.vsite_streak <- site.vsite_streak + 1;
      if site.vsite_streak > streak_limit then site.vsite_streak <- -1
    end;
    (* a disabled site walks without keeping a path: its cache is never
       consulted again *)
    let fill = site.vsite_streak >= 0 in
    let rec go missed s =
      if charged then charge t 2;
      let i = find_slot t s site.vsite_name in
      if i >= 0 then begin
        let path = if fill then Array.of_list (List.rev_map (fun sc -> (sc, sc.decls)) missed) else [||] in
        site.above <- walk_fill site.above start s i path;
        if fill && full then
          site.full <- walk_fill site.full cur s i (Array.append [| (cur, cur.decls) |] path);
        true
      end
      else match s.parent with Some p -> go (if fill then s :: missed else missed) p | None -> false
    in
    go [] start
  end

let lookup_above t ~full site cur start =
  if resolve_above t ~charged:true ~full site cur start then walk_get t site.above else t.unbound

let assign_above t ~full site cur start v =
  resolve_above t ~charged:false ~full site cur start && (walk_set site.above v; true)

(* An AST-tier identifier: [slots.(i)] is its name's slot in the i-th
   static frame up from [s] (-1: absent), skipped while unbound; past the
   last, [lookup_above].  Charges 2 per level probed, like the walk. *)
let rec static_lookup t slots site s i =
  if i = Array.length slots then begin
    if i > 0 then charge t (2 * i);
    lookup_above t ~full:false site s s
  end
  else
    let j = Array.unsafe_get slots i in
    let v = if j >= 0 then s.vals.(j) else t.unbound in
    if v != t.unbound then (charge t (2 * (i + 1)); v)
    else match s.parent with Some p -> static_lookup t slots site p (i + 1) | None -> t.unbound

(* The assignment counterpart: charges nothing. *)
let rec static_assign t slots site s i v =
  if i = Array.length slots then assign_above t ~full:false site s s v
  else
    let j = Array.unsafe_get slots i in
    if j >= 0 && s.vals.(j) != t.unbound then (s.vals.(j) <- v; true)
    else match s.parent with Some p -> static_assign t slots site p (i + 1) v | None -> false

(* A [var], function declaration or parameter into slot [i]. *)
let declare_slot t s i v =
  if s.vals.(i) == t.unbound then s.decls <- s.decls + 1;
  s.vals.(i) <- v

let slot_cached site cur =
  cur.origin > 0 && cur.origin = site.vslot_origin && cur.decls = site.vslot_decls

(* A bytecode-tier site found its name at slot [i] of [cur] itself. *)
let learn_innermost site cur i =
  site.vsite_streak <- 0;
  site.full <- walk_fill site.full cur cur i [||];
  if cur.origin > 0 then begin
    site.vslot_origin <- cur.origin;
    site.vslot_decls <- cur.decls;
    site.vslot_idx <- i
  end

let cached_lookup t cur site =
  let v =
    if site.vsite_streak < 0 then lookup_above t ~full:false site cur cur
    else if slot_cached site cur then (count_hit t site; charge t 2; cur.vals.(site.vslot_idx))
    else if walk_valid site.full cur then begin
      count_hit t site;
      charge t (2 * walk_levels site.full);
      walk_get t site.full
    end
    else begin
      charge t 2;
      let i = find_slot t cur site.vsite_name in
      if i >= 0 then (learn_innermost site cur i; cur.vals.(i))
      else match cur.parent with Some p -> lookup_above t ~full:true site cur p | None -> t.unbound
    end
  in
  if v == t.unbound then None else Some v

let cached_assign t cur site v =
  if site.vsite_streak < 0 then assign_above t ~full:false site cur cur v
  else if slot_cached site cur then (count_hit t site; cur.vals.(site.vslot_idx) <- v; true)
  else if walk_valid site.full cur then (count_hit t site; walk_set site.full v; true)
  else
    let i = find_slot t cur site.vsite_name in
    if i >= 0 then (learn_innermost site cur i; cur.vals.(i) <- v; true)
    else match cur.parent with Some p -> assign_above t ~full:true site cur p v | None -> false

let to_num t v =
  match v with
  | Value.Num f -> f
  | Value.Bool true -> 1.0
  | Value.Bool false -> 0.0
  | Value.Null -> 0.0
  | Value.Str s ->
    (match float_of_string_opt (String.trim (Value.string_of_str t.heap s)) with
    | Some f -> f
    | None -> Float.nan)
  | v -> fail "cannot convert %s to a number" (Value.type_name v)

let to_int t v = int_of_float (to_num t v)

(* JS ToInt32: wrap the integral part into signed 32-bit range. *)
let wrap32 x =
  let m = x land 0xFFFFFFFF in
  if m >= 0x80000000 then m - 0x100000000 else m

(* Inside +-2^62 a number truncates to an int exactly, and wrapping that
   int is what the general path computes for integers and fractions
   alike: no C call.  NaN, infinities and huge values take the general
   path. *)
let to_i32 t v =
  match v with
  | Value.Num f when Float.abs f < 0x1p62 -> wrap32 (int_of_float f)
  | v ->
    let f = to_num t v in
    if Float.is_nan f || Float.is_integer f = false then wrap32 (int_of_float f)
    else wrap32 (int_of_float (Float.rem f 4294967296.0))

let of_i32 x = float_of_int (wrap32 x)

let to_str t v =
  match v with
  | Value.Str _ -> v
  | v -> Value.str_of_string t.heap (Value.to_display_string t.heap v)

let as_str = function
  | Value.Str s -> s
  | v -> fail "expected a string, got %s" (Value.type_name v)

let as_arr = function
  | Value.Arr a -> a
  | v -> fail "expected an array, got %s" (Value.type_name v)

(* --- JSON builtins (kraken-style json-parse / json-stringify) --- *)

let rec json_stringify t buf v =
  match v with
  | Value.Null -> Buffer.add_string buf "null"
  | Value.Bool b -> Buffer.add_string buf (string_of_bool b)
  | Value.Num f ->
    Buffer.add_string buf
      (if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
       else Printf.sprintf "%.12g" f)
  | Value.Str s ->
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | c -> Buffer.add_char buf c)
      (Value.string_of_str t.heap s);
    Buffer.add_char buf '"'
  | Value.Arr a ->
    Buffer.add_char buf '[';
    for i = 0 to a.Value.a_len - 1 do
      if i > 0 then Buffer.add_char buf ',';
      json_stringify t buf (Value.arr_get t.heap a i)
    done;
    Buffer.add_char buf ']'
  | Value.Obj o ->
    Buffer.add_char buf '{';
    let first = ref true in
    Value.obj_iter
      (fun k v ->
        if not !first then Buffer.add_char buf ',';
        first := false;
        Buffer.add_string buf (Printf.sprintf "%S" k);
        Buffer.add_char buf ':';
        json_stringify t buf v)
      o;
    Buffer.add_char buf '}'
  | Value.Fun _ | Value.Host _ | Value.Handle _ -> Buffer.add_string buf "null"

let json_parse t (s : Value.str) =
  (* Reuse the util JSON parser on a copy of the bytes (the copy itself is
     a charged machine read), then rebuild engine values. *)
  let text = Value.string_of_str t.heap s in
  let rec convert = function
    | Util.Json.Null -> Value.Null
    | Util.Json.Bool b -> Value.Bool b
    | Util.Json.Int i -> Value.Num (float_of_int i)
    | Util.Json.Float f -> Value.Num f
    | Util.Json.String s -> Value.str_of_string t.heap s
    | Util.Json.List items ->
      let arr = Value.arr_make t.heap 0 in
      let a = as_arr arr in
      List.iter (fun item -> Value.arr_push t.heap a (convert item)) items;
      arr
    | Util.Json.Obj fields ->
      let obj = Value.obj_make t.heap in
      (match obj with
      | Value.Obj o -> List.iter (fun (k, v) -> Value.obj_set t.heap o k (convert v)) fields
      | _ -> assert false);
      obj
  in
  match Util.Json.of_string text with
  | v -> convert v
  | exception Util.Json.Parse_error msg -> fail "JSON.parse: %s" msg

(* --- Static namespaces --- *)

let math_call t name args =
  let num i = to_num t (List.nth args i) in
  let unary f = Value.Num (f (num 0)) in
  charge t 4;
  match (name, List.length args) with
  | "floor", 1 -> unary Float.floor
  | "ceil", 1 -> unary Float.ceil
  | "round", 1 -> unary Float.round
  | "abs", 1 -> unary Float.abs
  | "sqrt", 1 -> unary sqrt
  | "sin", 1 -> unary sin
  | "cos", 1 -> unary cos
  | "tan", 1 -> unary tan
  | "atan", 1 -> unary atan
  | "log", 1 -> unary log
  | "exp", 1 -> unary exp
  | "atan2", 2 -> Value.Num (atan2 (num 0) (num 1))
  | "pow", 2 -> Value.Num (Float.pow (num 0) (num 1))
  | "min", 2 -> Value.Num (Float.min (num 0) (num 1))
  | "max", 2 -> Value.Num (Float.max (num 0) (num 1))
  | "random", 0 -> Value.Num (Util.Rng.float t.rng 1.0)
  | "trunc", 1 -> unary Float.trunc
  | "sign", 1 -> unary (fun f -> if f > 0.0 then 1.0 else if f < 0.0 then -1.0 else 0.0)
  | "hypot", 2 -> Value.Num (Float.hypot (num 0) (num 1))
  | "log2", 1 -> unary (fun f -> log f /. log 2.0)
  | _ -> fail "Math.%s: unknown function or bad arity" name

let string_ns_call t name args =
  match (name, args) with
  | "fromCharCode", codes ->
    let bytes = Bytes.create (List.length codes) in
    List.iteri (fun i c -> Bytes.set bytes i (Char.chr (to_int t c land 0xFF))) codes;
    Value.str_of_string t.heap (Bytes.to_string bytes)
  | _ -> fail "String.%s: unknown function" name

let json_ns_call t name args =
  match (name, args) with
  | "stringify", [ v ] ->
    let buf = Buffer.create 64 in
    json_stringify t buf v;
    (* Building the text costs proportional machine writes. *)
    Value.str_of_string t.heap (Buffer.contents buf)
  | "parse", [ v ] -> json_parse t (as_str v)
  | _ -> fail "JSON.%s: unknown function or bad arity" name

(* --- Value methods --- *)

(* Parameter [i] into slot [params.(i)], in order, missing arguments
   bound to null. *)
let rec bind_params t frame params i args =
  if i < Array.length params then
    match args with
    | v :: rest ->
      declare_slot t frame params.(i) v;
      bind_params t frame params (i + 1) rest
    | [] ->
      declare_slot t frame params.(i) Value.Null;
      bind_params t frame params (i + 1) []

(* A fresh static frame of [kind]'s layout, every slot unbound. *)
let new_frame t kind parent =
  let n = match kind with Static layout -> Array.length layout | Dynamic _ -> 0 in
  { vals = Array.make n t.unbound; kind; decls = 0; parent = Some parent; origin = 0 }

let rec method_call t recv name args =
  match recv with
  | Value.Arr a ->
    (match (name, args) with
    | "push", [ v ] ->
      Value.arr_push t.heap a v;
      Value.Num (float_of_int a.Value.a_len)
    | "pop", [] -> Value.arr_pop t.heap a
    | "join", [ sep ] ->
      let sep = Value.string_of_str t.heap (as_str (to_str t sep)) in
      let parts =
        List.init a.Value.a_len (fun i ->
            Value.to_display_string t.heap (Value.arr_get t.heap a i))
      in
      Value.str_of_string t.heap (String.concat sep parts)
    | "indexOf", [ v ] ->
      let rec find i =
        if i >= a.Value.a_len then -1
        else if Value.equals t.heap (Value.arr_get t.heap a i) v then i
        else find (i + 1)
      in
      Value.Num (float_of_int (find 0))
    | "slice", [ lo; hi ] ->
      let len = a.Value.a_len in
      let norm i = if i < 0 then max 0 (len + i) else min i len in
      let lo = norm (to_int t lo) and hi = norm (to_int t hi) in
      let out = Value.arr_make t.heap 0 in
      let o = as_arr out in
      for i = lo to hi - 1 do
        Value.arr_push t.heap o (Value.arr_get t.heap a i)
      done;
      out
    | "concat", [ other ] ->
      let other = as_arr other in
      let out = Value.arr_make t.heap 0 in
      let o = as_arr out in
      for i = 0 to a.Value.a_len - 1 do
        Value.arr_push t.heap o (Value.arr_get t.heap a i)
      done;
      for i = 0 to other.Value.a_len - 1 do
        Value.arr_push t.heap o (Value.arr_get t.heap other i)
      done;
      out
    | "reverse", [] ->
      let n = a.Value.a_len in
      for i = 0 to (n / 2) - 1 do
        let x = Value.arr_get t.heap a i in
        let y = Value.arr_get t.heap a (n - 1 - i) in
        Value.arr_set t.heap a i y;
        Value.arr_set t.heap a (n - 1 - i) x
      done;
      recv
    | "fill", [ v ] ->
      for i = 0 to a.Value.a_len - 1 do
        Value.arr_set t.heap a i v
      done;
      recv
    | "map", [ f ] ->
      let out = Value.arr_make t.heap 0 in
      let o = as_arr out in
      for i = 0 to a.Value.a_len - 1 do
        Value.arr_push t.heap o (call_value t f [ Value.arr_get t.heap a i ])
      done;
      out
    | "filter", [ f ] ->
      let out = Value.arr_make t.heap 0 in
      let o = as_arr out in
      for i = 0 to a.Value.a_len - 1 do
        let v = Value.arr_get t.heap a i in
        if Value.truthy (call_value t f [ v ]) then Value.arr_push t.heap o v
      done;
      out
    | "reduce", [ f; init ] ->
      let acc = ref init in
      for i = 0 to a.Value.a_len - 1 do
        acc := call_value t f [ !acc; Value.arr_get t.heap a i ]
      done;
      !acc
    | "sort", [] ->
      (* Numeric ascending (insertion sort through machine slots). *)
      for i = 1 to a.Value.a_len - 1 do
        let v = Value.arr_get t.heap a i in
        let key = to_num t v in
        let j = ref (i - 1) in
        while !j >= 0 && to_num t (Value.arr_get t.heap a !j) > key do
          Value.arr_set t.heap a (!j + 1) (Value.arr_get t.heap a !j);
          decr j
        done;
        Value.arr_set t.heap a (!j + 1) v
      done;
      recv
    | _ -> fail "array has no method %s/%d" name (List.length args))
  | Value.Str s ->
    (match (name, args) with
    | "charCodeAt", [ i ] -> Value.Num (float_of_int (Value.str_get t.heap s (to_int t i)))
    | "charAt", [ i ] ->
      let i = to_int t i in
      if i < 0 || i >= s.Value.s_len then Value.str_of_string t.heap ""
      else Value.str_sub t.heap s i 1
    | "substring", [ a; b ] ->
      let a = to_int t a and b = to_int t b in
      let lo = min a b and hi = max a b in
      Value.str_sub t.heap s lo (hi - lo)
    | "indexOf", [ needle ] ->
      Value.Num (float_of_int (Value.str_index_of t.heap s (as_str needle)))
    | "split", [ sep ] ->
      let text = Value.string_of_str t.heap s in
      let sep = Value.string_of_str t.heap (as_str sep) in
      let parts =
        if String.length sep = 1 then String.split_on_char sep.[0] text
        else fail "split: only single-character separators are supported"
      in
      let arr = Value.arr_make t.heap 0 in
      let a = as_arr arr in
      List.iter (fun p -> Value.arr_push t.heap a (Value.str_of_string t.heap p)) parts;
      arr
    | "slice", [ a; b ] ->
      let len = s.Value.s_len in
      let norm i = if i < 0 then max 0 (len + i) else min i len in
      let a = norm (to_int t a) and b = norm (to_int t b) in
      Value.str_sub t.heap s a (max 0 (b - a))
    | "trim", [] ->
      Value.str_of_string t.heap (String.trim (Value.string_of_str t.heap s))
    | "startsWith", [ p ] ->
      Value.Bool (Value.str_index_of t.heap s (as_str p) = 0)
    | "replace", [ find; repl ] ->
      (* First occurrence only, like the JS string (not regex) form. *)
      let find = as_str find in
      let idx = Value.str_index_of t.heap s find in
      if idx < 0 then Value.Str s
      else begin
        let text = Value.string_of_str t.heap s in
        let repl = Value.string_of_str t.heap (as_str repl) in
        Value.str_of_string t.heap
          (String.sub text 0 idx ^ repl
          ^ String.sub text (idx + find.Value.s_len) (String.length text - idx - find.Value.s_len))
      end
    | "toUpperCase", [] ->
      Value.str_of_string t.heap (String.uppercase_ascii (Value.string_of_str t.heap s))
    | "toLowerCase", [] ->
      Value.str_of_string t.heap (String.lowercase_ascii (Value.string_of_str t.heap s))
    | _ -> fail "string has no method %s/%d" name (List.length args))
  | Value.Obj o ->
    (* Calling a function-valued property. *)
    (match Value.obj_get t.heap o name with
    | Value.Null -> fail "object has no method %s" name
    | f -> call_value t f args)
  | v -> fail "%s has no methods" (Value.type_name v)

and member t recv name =
  match (recv, name) with
  | Value.Arr a, "length" -> Value.Num (float_of_int a.Value.a_len)
  | Value.Str s, "length" -> Value.Num (float_of_int s.Value.s_len)
  | Value.Obj o, _ -> Value.obj_get t.heap o name
  | v, _ -> fail "cannot read property %s of %s" name (Value.type_name v)

and call_value t callee args =
  charge t t.machine.Sim.Machine.cpu.Sim.Cpu.cost.Sim.Cost.call;
  match callee with
  | Value.Fun id ->
    count_call t;
    let c = t.closures.(id) in
    let code = Lazy.force c.c_func.f_code in
    let frame = new_frame t code.c_kind c.c_scope in
    bind_params t frame code.c_params 0 args;
    (match code.c_body t frame with
    | () ->
      leave_call t;
      Value.Null
    | exception Return_exc v ->
      leave_call t;
      v)
  | Value.Host name ->
    (match Hashtbl.find_opt t.hosts name with
    | Some fn -> fn args
    | None -> fail "unknown host function %s" name)
  | v -> fail "%s is not callable" (Value.type_name v)

(* The binary operators, resolved once per site: the operator string is
   matched when the site is compiled, not on every execution.  Each
   returned closure charges 1, then performs the operation; an unknown
   operator yields a closure that still charges 1 before failing. *)
let binary_fn op : t -> Value.t -> Value.t -> Value.t =
  match op with
  | "+" ->
    fun t a b ->
      charge t 1;
      (match (a, b) with
      | Value.Str _, _ | _, Value.Str _ ->
        Value.str_concat t.heap (as_str (to_str t a)) (as_str (to_str t b))
      | _ -> Value.Num (to_num t a +. to_num t b))
  | "-" ->
    fun t a b ->
      charge t 1;
      Value.Num (to_num t a -. to_num t b)
  | "*" ->
    fun t a b ->
      charge t 1;
      Value.Num (to_num t a *. to_num t b)
  | "/" ->
    fun t a b ->
      charge t 1;
      Value.Num (to_num t a /. to_num t b)
  | "%" ->
    fun t a b ->
      charge t 1;
      Value.Num (Float.rem (to_num t a) (to_num t b))
  | "&" ->
    fun t a b ->
      charge t 1;
      Value.Num (of_i32 (to_i32 t a land to_i32 t b))
  | "|" ->
    fun t a b ->
      charge t 1;
      Value.Num (of_i32 (to_i32 t a lor to_i32 t b))
  | "^" ->
    fun t a b ->
      charge t 1;
      Value.Num (of_i32 (to_i32 t a lxor to_i32 t b))
  | "<<" ->
    fun t a b ->
      charge t 1;
      Value.Num (of_i32 (to_i32 t a lsl (to_i32 t b land 31)))
  | ">>" ->
    fun t a b ->
      charge t 1;
      Value.Num (of_i32 (to_i32 t a asr (to_i32 t b land 31)))
  | "==" ->
    fun t a b ->
      charge t 1;
      Value.Bool (Value.equals t.heap a b)
  | "!=" ->
    fun t a b ->
      charge t 1;
      Value.Bool (not (Value.equals t.heap a b))
  | "<" ->
    fun t a b ->
      charge t 1;
      Value.Bool (to_num t a < to_num t b)
  | "<=" ->
    fun t a b ->
      charge t 1;
      Value.Bool (to_num t a <= to_num t b)
  | ">" ->
    fun t a b ->
      charge t 1;
      Value.Bool (to_num t a > to_num t b)
  | ">=" ->
    fun t a b ->
      charge t 1;
      Value.Bool (to_num t a >= to_num t b)
  | op ->
    fun t _ _ ->
      charge t 1;
      fail "unknown operator %s" op

let truthy_value = Value.truthy

let unary_op t op v =
  match op with
  | "!" -> Value.Bool (not (Value.truthy v))
  | "-" -> Value.Num (-.to_num t v)
  | "~" -> Value.Num (of_i32 (lnot (to_i32 t v)))
  | op -> fail "unknown unary operator %s" op

let member_get t recv name = member t recv name

let member_set t recv name v =
  match recv with
  | Value.Obj o -> Value.obj_set t.heap o name v
  | v -> fail "cannot set property %s on %s" name (Value.type_name v)

let index_get t recv idx =
  match recv with
  | Value.Arr arr ->
    let i = to_int t idx in
    if i < 0 || i >= arr.Value.a_len then Value.Null else Value.arr_get t.heap arr i
  | Value.Str s ->
    let i = to_int t idx in
    if i < 0 || i >= s.Value.s_len then Value.Null else Value.str_sub t.heap s i 1
  | Value.Obj o -> Value.obj_get t.heap o (Value.string_of_str t.heap (as_str (to_str t idx)))
  | v -> fail "cannot index %s" (Value.type_name v)

let index_set t recv idx v =
  match recv with
  | Value.Arr arr ->
    let i = to_int t idx in
    if i = arr.Value.a_len then Value.arr_push t.heap arr v
    else if i >= 0 && i < arr.Value.a_len then Value.arr_set t.heap arr i v
    else fail "array store out of range: %d (len %d)" i arr.Value.a_len
  | Value.Obj o -> Value.obj_set t.heap o (Value.string_of_str t.heap (as_str (to_str t idx))) v
  | v -> fail "cannot index-assign %s" (Value.type_name v)

let ns_call t ns name args =
  match ns with
  | "Math" -> math_call t name args
  | "JSON" -> json_ns_call t name args
  | "String" -> string_ns_call t name args
  | ns -> fail "unknown namespace %s" ns

let make_closure t fn scope = Value.Fun (add_closure t { c_func = fn; c_scope = scope })

(* --- The AST tier: compile once, then run closures ---

   Each AST node is translated a single time into an OCaml closure over
   the evaluator and the current scope.  A closure performs exactly the
   ticks and charges a tree walk of its node would, in the same order:
   every expression ticks once on entry, every statement ticks once
   (top-level expression statements excepted, see [run_program]), and
   everything the walk decoded per visit — operator strings, literals,
   special forms — is decided here instead.  Compilation is total and
   pure: errors stay where the walk raised them, inside the closures.

   Every call, [for] and block execution mints a static frame of its
   site's layout (DESIGN.md §11): declarations write by slot, and each
   identifier read or assignment target carries its slot in every
   static frame up to its function's call frame.  Top-level code runs
   in the global scope, which stays dynamic. *)

type expr_code = t -> scope -> Value.t
type stmt_code = t -> scope -> unit

(* [local] is the list of static frame layouts from the innermost out to
   the function's call frame ([] at top level).  A name's slot in each of
   them, -1 where absent. *)
let resolve local name = Array.of_list (List.map (fun layout -> layout_index layout name 0) local)

(* A frame's layout: [names], then what [stmts] declare into the scope
   they run in ([if] and [while] bodies share it; [for] and blocks open
   their own), each name once, in first-declaration order. *)
let layout_of ?(names = []) stmts =
  let add acc n = if List.mem n acc then acc else n :: acc in
  let rec go acc (s : Ast.stmt) =
    match s with
    | Ast.Var (name, _) | Ast.Func_decl (name, _, _) -> add acc name
    | Ast.If (_, a, b) -> List.fold_left go (List.fold_left go acc a) b
    | Ast.While (_, body) -> List.fold_left go acc body
    | Ast.Expr _ | Ast.For _ | Ast.Return _ | Ast.Break | Ast.Continue | Ast.Block _ -> acc
  in
  Array.of_list (List.rev (List.fold_left go (List.fold_left add [] names) stmts))

(* A [var] or function declaration's store: by slot into the innermost
   static frame, by name into the global scope at top level. *)
let declarer local name =
  match local with
  | layout :: _ ->
    let i = layout_index layout name 0 in
    fun t scope v -> declare_slot t scope i v
  | [] -> fun _ scope v -> declare scope name v

(* Left to right, like the walk's [List.map]. *)
let rec eval_args t scope = function
  | [] -> []
  | c :: cs ->
    let v = c t scope in
    v :: eval_args t scope cs

let rec compile_expr local (e : Ast.expr) : expr_code =
  match e with
  | Ast.Num f ->
    let v = Value.Num f in
    fun t _ ->
      tick t 1;
      v
  | Ast.Str s ->
    fun t _ ->
      tick t 1;
      Value.str_of_string t.heap s
  | Ast.Bool b ->
    let v = Value.Bool b in
    fun t _ ->
      tick t 1;
      v
  | Ast.Null ->
    fun t _ ->
      tick t 1;
      Value.Null
  | Ast.Ident (("Math" | "JSON" | "String") as ns) ->
    fun t _ ->
      tick t 1;
      fail "namespace %s cannot be used as a value" ns
  | Ast.Ident name ->
    let slots = resolve local name and site = make_site ~counted:false name in
    fun t scope ->
      tick t 1;
      let v = static_lookup t slots site scope 0 in
      if v != t.unbound then v
      else if Hashtbl.mem t.hosts name then Value.Host name
      else fail "undefined variable %s" name
  | Ast.Array_lit items ->
    let cs = List.map (compile_expr local) items in
    fun t scope ->
      tick t 1;
      let arr = Value.arr_make t.heap 0 in
      let a = as_arr arr in
      List.iter (fun c -> Value.arr_push t.heap a (c t scope)) cs;
      arr
  | Ast.Object_lit fields ->
    let cs = List.map (fun (k, v) -> (k, compile_expr local v)) fields in
    fun t scope ->
      tick t 1;
      let obj = Value.obj_make t.heap in
      (match obj with
      | Value.Obj o -> List.iter (fun (k, c) -> Value.obj_set t.heap o k (c t scope)) cs
      | _ -> assert false);
      obj
  | Ast.Func_lit (params, body) ->
    let fn = func ~params ~body in
    fun t scope ->
      tick t 1;
      make_closure t fn scope
  | Ast.Unary ((("!" | "-" | "~") as op), e) ->
    let c = compile_expr local e in
    fun t scope ->
      tick t 1;
      unary_op t op (c t scope)
  | Ast.Unary (op, _) ->
    fun t _ ->
      tick t 1;
      fail "unknown unary operator %s" op
  | Ast.Binary ("&&", a, b) ->
    let ca = compile_expr local a and cb = compile_expr local b in
    fun t scope ->
      tick t 1;
      let va = ca t scope in
      if Value.truthy va then cb t scope else va
  | Ast.Binary ("||", a, b) ->
    let ca = compile_expr local a and cb = compile_expr local b in
    fun t scope ->
      tick t 1;
      let va = ca t scope in
      if Value.truthy va then va else cb t scope
  | Ast.Binary (op, a, b) ->
    let f = binary_fn op and ca = compile_expr local a and cb = compile_expr local b in
    fun t scope ->
      tick t 1;
      (* The right operand first: the order the walk's applicative
         [binary t op (eval a) (eval b)] got from ocamlopt. *)
      let vb = cb t scope in
      let va = ca t scope in
      f t va vb
  | Ast.Ternary (c, a, b) ->
    let cc = compile_expr local c and ca = compile_expr local a and cb = compile_expr local b in
    fun t scope ->
      tick t 1;
      if Value.truthy (cc t scope) then ca t scope else cb t scope
  | Ast.Assign ("=", lhs, rhs) ->
    let crhs = compile_expr local rhs and st = compile_store local lhs in
    fun t scope ->
      tick t 1;
      let v = crhs t scope in
      st t scope v;
      v
  | Ast.Assign (op, lhs, rhs) ->
    (* [x op= e]: the rhs, then the lhs as an expression, then the store
       re-evaluates the lhs subexpressions. *)
    let crhs = compile_expr local rhs and clhs = compile_expr local lhs and st = compile_store local lhs in
    let f = binary_fn (String.sub op 0 (min 1 (String.length op))) in
    fun t scope ->
      tick t 1;
      let v = crhs t scope in
      let v = f t (clhs t scope) v in
      st t scope v;
      v
  | Ast.Index (a, i) ->
    let ca = compile_expr local a and ci = compile_expr local i in
    fun t scope ->
      tick t 1;
      (match ca t scope with
      | (Value.Arr _ | Value.Str _ | Value.Obj _) as recv -> index_get t recv (ci t scope)
      | v -> fail "cannot index %s" (Value.type_name v))
  | Ast.Member (e, name) ->
    let c = compile_expr local e in
    fun t scope ->
      tick t 1;
      member t (c t scope) name
  | Ast.Method_call (Ast.Ident (("Math" | "JSON" | "String") as ns), name, args) ->
    let cs = List.map (compile_expr local) args in
    fun t scope ->
      tick t 1;
      ns_call t ns name (eval_args t scope cs)
  | Ast.Method_call (recv, name, args) ->
    let cr = compile_expr local recv and cs = List.map (compile_expr local) args in
    fun t scope ->
      tick t 1;
      let recv = cr t scope in
      let args = eval_args t scope cs in
      charge t 3;
      method_call t recv name args
  | Ast.Call (Ast.Ident "parseInt", [ arg ]) ->
    let c = compile_expr local arg in
    fun t scope ->
      tick t 1;
      Value.Num (Float.trunc (to_num t (c t scope)))
  | Ast.Call (Ast.Ident ("parseFloat" | "Number"), [ arg ]) ->
    let c = compile_expr local arg in
    fun t scope ->
      tick t 1;
      Value.Num (to_num t (c t scope))
  | Ast.Call (Ast.Ident "isNaN", [ arg ]) ->
    let c = compile_expr local arg in
    fun t scope ->
      tick t 1;
      Value.Bool (Float.is_nan (to_num t (c t scope)))
  | Ast.Call (Ast.Ident "typeof", [ arg ]) ->
    let c = compile_expr local arg in
    fun t scope ->
      tick t 1;
      Value.str_of_string t.heap (Value.type_name (c t scope))
  | Ast.Call (Ast.Ident "print", args) ->
    let cs = List.map (compile_expr local) args in
    fun t scope ->
      tick t 1;
      (* each argument is rendered before the next one runs *)
      let parts = List.map (fun c -> Value.to_display_string t.heap (c t scope)) cs in
      t.output <- String.concat " " parts :: t.output;
      Value.Null
  | Ast.Call (Ast.Ident "__new_array", [ n ]) ->
    let c = compile_expr local n in
    fun t scope ->
      tick t 1;
      Value.arr_make t.heap (to_int t (c t scope))
  | Ast.Call (callee, args) ->
    let cc = compile_expr local callee and cs = List.map (compile_expr local) args in
    fun t scope ->
      tick t 1;
      let callee = cc t scope in
      let args = eval_args t scope cs in
      call_value t callee args

(* Stores [v] into an assignment target; charges nothing itself. *)
and compile_store local (lhs : Ast.expr) : t -> scope -> Value.t -> unit =
  match lhs with
  | Ast.Ident name ->
    let slots = resolve local name and site = make_site ~counted:false name in
    fun t scope v -> if not (static_assign t slots site scope 0 v) then declare t.globals name v
  | Ast.Index (a, i) ->
    let ca = compile_expr local a and ci = compile_expr local i in
    fun t scope v ->
      (match ca t scope with
      | (Value.Arr _ | Value.Obj _) as recv -> index_set t recv (ci t scope) v
      | v -> fail "cannot index-assign %s" (Value.type_name v))
  | Ast.Member (e, name) ->
    let c = compile_expr local e in
    fun t scope v -> member_set t (c t scope) name v
  | _ -> fun _ _ _ -> fail "invalid assignment target"

and compile_stmt local (s : Ast.stmt) : stmt_code =
  match s with
  | Ast.Expr e ->
    let c = compile_expr local e in
    fun t scope ->
      tick t 1;
      ignore (c t scope)
  | Ast.Var (name, init) ->
    let c = compile_expr local init and decl = declarer local name in
    fun t scope ->
      tick t 1;
      decl t scope (c t scope)
  | Ast.Func_decl (name, params, body) ->
    let fn = func ~params ~body and decl = declarer local name in
    fun t scope ->
      tick t 1;
      decl t scope (make_closure t fn scope)
  | Ast.If (cond, then_, else_) ->
    let cc = compile_expr local cond and ct = compile_stmts local then_ and ce = compile_stmts local else_ in
    fun t scope ->
      tick t 1;
      if Value.truthy (cc t scope) then ct t scope else ce t scope
  | Ast.While (cond, body) ->
    let cc = compile_expr local cond and cb = compile_stmts local body in
    fun t scope ->
      tick t 1;
      (try
         while Value.truthy (cc t scope) do
           try cb t scope with Continue_exc -> ()
         done
       with Break_exc -> ())
  | Ast.For (init, cond, step, body) ->
    let opt = function Some s -> [ s ] | None -> [] in
    let layout = layout_of (opt init @ opt step @ body) in
    let kind = Static layout and local = layout :: local in
    let opt_stmt = function Some s -> compile_stmt local s | None -> fun _ _ -> () in
    let ci = opt_stmt init and cs = opt_stmt step and cb = compile_stmts local body in
    let check =
      match cond with
      | Some c ->
        let c = compile_expr local c in
        fun t scope -> Value.truthy (c t scope)
      | None -> fun _ _ -> true
    in
    fun t scope ->
      tick t 1;
      let loop_scope = new_frame t kind scope in
      ci t loop_scope;
      (try
         while check t loop_scope do
           (try cb t loop_scope with Continue_exc -> ());
           cs t loop_scope
         done
       with Break_exc -> ())
  | Ast.Return None ->
    fun t _ ->
      tick t 1;
      raise (Return_exc Value.Null)
  | Ast.Return (Some e) ->
    let c = compile_expr local e in
    fun t scope ->
      tick t 1;
      raise (Return_exc (c t scope))
  | Ast.Break ->
    fun t _ ->
      tick t 1;
      raise Break_exc
  | Ast.Continue ->
    fun t _ ->
      tick t 1;
      raise Continue_exc
  | Ast.Block body ->
    let layout = layout_of body in
    let kind = Static layout and cb = compile_stmts (layout :: local) body in
    fun t scope ->
      tick t 1;
      cb t (new_frame t kind scope)

and compile_stmts local stmts : stmt_code =
  match List.map (compile_stmt local) stmts with
  | [] -> fun _ _ -> ()
  | [ a ] -> a
  | cs ->
    let cs = Array.of_list cs in
    fun t scope ->
      for i = 0 to Array.length cs - 1 do
        cs.(i) t scope
      done

and func ~params ~body =
  let code =
    lazy
      (let layout = layout_of ~names:params body in
       { c_kind = Static layout;
         c_params = Array.of_list (List.map (fun p -> layout_index layout p 0) params);
         c_body = compile_stmts [ layout ] body })
  in
  { f_params = params; f_body = body; f_code = code }
let func_params fn = fn.f_params
let func_body fn = fn.f_body

(* --- Garbage collection (see the interface for the safety contract) --- *)

let gc t =
  let live = Hashtbl.create 256 in
  let seen_closures = Hashtbl.create 64 in
  let seen_scopes : scope list ref = ref [] in
  let rec mark_value v =
    match v with
    | Value.Null | Value.Bool _ | Value.Num _ | Value.Host _ | Value.Handle _ -> ()
    | Value.Str s -> if s.Value.s_owned then Hashtbl.replace live s.Value.s_addr ()
    | Value.Arr a ->
      if not (Hashtbl.mem live a.Value.a_buf) then begin
        Hashtbl.replace live a.Value.a_buf ();
        for i = 0 to a.Value.a_len - 1 do
          mark_value (Value.arr_get t.heap a i)
        done
      end
    | Value.Obj o ->
      if not (Hashtbl.mem live o.Value.o_addr) then begin
        Hashtbl.replace live o.Value.o_addr ();
        Value.obj_iter (fun _ v -> mark_value v) o
      end
    | Value.Fun id ->
      if not (Hashtbl.mem seen_closures id) then begin
        Hashtbl.add seen_closures id ();
        mark_scope t.closures.(id).c_scope
      end
  and mark_scope scope =
    if not (List.memq scope !seen_scopes) then begin
      seen_scopes := scope :: !seen_scopes;
      (match scope.kind with
      | Dynamic vars -> Hashtbl.iter (fun _ i -> mark_value scope.vals.(i)) vars
      | Static _ -> Array.iter (fun v -> if v != t.unbound then mark_value v) scope.vals);
      match scope.parent with
      | Some parent -> mark_scope parent
      | None -> ()
    end
  in
  mark_scope t.globals;
  List.iter (fun provider -> List.iter mark_value (provider ())) t.gc_roots;
  Value.sweep t.heap ~live:(Hashtbl.mem live)

let run_program t (prog : Ast.program) =
  t.depth <- 0;
  let result = ref Value.Null in
  (* A top-level expression statement takes no statement tick: its value
     is the program's result so far. *)
  let code =
    List.map
      (function
        | Ast.Expr e ->
          let c = compile_expr [] e in
          fun () -> result := c t t.globals
        | s ->
          let c = compile_stmt [] s in
          fun () -> c t t.globals)
      prog
  in
  List.iter (fun run -> run ()) code;
  !result

let call_function t f args = call_value t f args

(* --- The tier-shared semantic core (see the interface) --- *)

let start_run t =
  t.depth <- 0;
  t.globals

let new_scope ~parent () = dynamic_scope ~origin:0 ~size:8 (Some parent)

let enter_call ?(origin = 0) t id params args =
  count_call t;
  let scope = dynamic_scope ~origin ~size:8 (Some t.closures.(id).c_scope) in
  let bind args p =
    declare scope p (match args with v :: _ -> v | [] -> Value.Null);
    match args with _ :: rest -> rest | [] -> []
  in
  ignore (List.fold_left bind args params);
  scope

let scope_declare = declare

let scope_lookup t scope name =
  let v = lookup_name t scope name in
  if v == t.unbound then None else Some v

let scope_assign t scope name v = if not (assign_name t scope name v) then declare t.globals name v

let host_exists t name = Hashtbl.mem t.hosts name

let print_values t args =
  let parts = List.map (Value.to_display_string t.heap) args in
  t.output <- String.concat " " parts :: t.output

let array_of_size t n = Value.arr_make t.heap (to_int t n)

let add_gc_root t provider = t.gc_roots <- provider :: t.gc_roots
