exception Script_error of string

let () =
  Printexc.register_printer (function
    | Script_error msg -> Some ("Eval.Script_error: " ^ msg)
    | _ -> None)

type host = Value.t list -> Value.t

type scope = {
  vars : (string, Value.t ref) Hashtbl.t;
  mutable decls : int;
      (* bumped only when a NEW name is declared in this scope; re-declaring
         an existing name updates its ref in place.  Variable inline caches
         validate against this epoch: an unchanged [decls] on every scope a
         cached walk skipped proves no new shadowing binding appeared. *)
  parent : scope option;
  origin : int;
      (* shared by every scope minted at one closure-call site (0 = not
         tracked).  Declarations at such a site form a fixed sequence —
         params first, then the body's own-scope [var]s in body order —
         so (origin, decls) determines the name of every slot below
         [decls], which is what the slot-resolved variable IC validates
         against. *)
  mutable slots : Value.t ref array; (* i-th newly declared binding, origin scopes only *)
}

(* A function literal's code: compiled on first call, then shared by every
   closure minted at its site. *)
and func = {
  f_params : string list;
  f_body : Ast.stmt list;
  f_code : (t -> scope -> unit) Lazy.t;
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

let no_slots : Value.t ref array = [||]

let create ?(seed = 1) ?(fuel = 200_000_000) heap =
  let root size = { vars = Hashtbl.create size; decls = 0; parent = None; origin = 0; slots = no_slots } in
  let unused = { f_params = []; f_body = []; f_code = Lazy.from_val (fun _ _ -> ()) } in
  {
    heap;
    machine = Pkru_safe.Env.machine (Value.env heap);
    globals = root 64;
    hosts = Hashtbl.create 32;
    closures = Array.make 16 { c_func = unused; c_scope = root 1 };
    nclosures = 0;
    rng = Util.Rng.create seed;
    output = [];
    fuel;
    steps = 0;
    depth = 0;
    gc_roots = [];
    origin_counter = 0;
    ic = { var_hits = 0; var_misses = 0 };
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

let declare scope name v =
  match Hashtbl.find_opt scope.vars name with
  | Some r -> r := v
  | None ->
    let r = ref v in
    Hashtbl.replace scope.vars name r;
    if scope.origin > 0 then begin
      let n = scope.decls in
      if n >= Array.length scope.slots then begin
        let bigger = Array.make (max 4 (2 * Array.length scope.slots)) r in
        Array.blit scope.slots 0 bigger 0 n;
        scope.slots <- bigger
      end;
      scope.slots.(n) <- r
    end;
    scope.decls <- scope.decls + 1

let set_global t name v = declare t.globals name v

let take_output t =
  let lines = List.rev t.output in
  t.output <- [];
  lines

let steps t = t.steps

let fail fmt = Format.kasprintf (fun msg -> raise (Script_error msg)) fmt

(* Script calls nest on the host stack, a few hundred bytes per level:
   this bound keeps a runaway recursion a script error, far inside
   OCaml's default stack, and far above what any registered benchmark
   reaches.  Any other exception out of a call aborts the whole run, so
   only the normal and [return] exits count the depth back down, and
   [run_program] resets it. *)
let max_call_depth = 10_000

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
    let bigger = Array.make (2 * Array.length t.closures) c in
    Array.blit t.closures 0 bigger 0 t.nclosures;
    t.closures <- bigger
  end;
  t.closures.(t.nclosures) <- c;
  t.nclosures <- t.nclosures + 1;
  t.nclosures - 1

(* The binding [name] resolves to, charging 2 cycles per level probed. *)
let rec lookup_ref t scope name =
  charge t 2;
  match Hashtbl.find_opt scope.vars name with
  | Some _ as hit -> hit
  | None ->
    (match scope.parent with
    | Some p -> lookup_ref t p name
    | None -> None)

let rec assign_existing t scope name v =
  match Hashtbl.find_opt scope.vars name with
  | Some r ->
    r := v;
    true
  | None ->
    (match scope.parent with
    | Some p -> assign_existing t p name v
    | None -> false)

(* --- Variable inline caches ---

   A call site that resolves the same name repeatedly can skip the
   host-side hash lookups of the scope walk while charging exactly the
   cycles the walk would have charged.  Two cache levels:

   - The {e full-walk} cache is anchored on the innermost scope itself.
     While [cur] is physically the same scope (loop bodies, block and
     global scopes survive across iterations) and no scope the walk
     probed has declared a new name since ([decls] epoch — nothing can
     shadow the cached binding), a hit needs zero hash probes.  It
     charges 2 cycles per level the uncached walk would have probed
     (misses below the holder plus the holder itself), so cycle counts
     are bit-identical.

   - Per-call scopes are fresh hash tables, so the full-walk anchor
     never validates inside function bodies.  The fallback performs (and
     charges) the real level-0 probe, then consults the {e walk-above}
     cache anchored on [cur.parent] — the captured scope chain, which IS
     stable across calls to the same closure.

   Sites whose anchors never stabilise (every access lands in a freshly
   minted scope, e.g. locals of a block re-entered each iteration) stop
   paying the cache-refill overhead: after [streak_limit] consecutive
   misses without a hit the site disables itself and reverts to the
   plain charged walk. *)

(* [ic_stats] is declared above [t] (the evaluator owns its counters, so
   concurrent sessions don't cross-pollute each other's hit rates). *)
let ic_stats t = t.ic

let reset_ic_stats t =
  t.ic.var_hits <- 0;
  t.ic.var_misses <- 0

type var_site = {
  vsite_name : string;
  (* slot cache, keyed on the scope's call-site origin: valid for every
     scope minted at that site while its declaration epoch matches *)
  mutable vslot_origin : int; (* 0 = empty *)
  mutable vslot_decls : int;
  mutable vslot_idx : int;
  (* full-walk cache, anchored on [cur] at fill time *)
  mutable vfull_anchor : scope option;
  mutable vfull_hit : Value.t ref option; (* the binding, preallocated as a result *)
  mutable vfull_path : (scope * int) array; (* probed-and-missed scopes + decls snapshots *)
  (* walk-above-cur cache, anchored on [cur.parent] at fill time *)
  mutable vsite_anchor : scope option;
  mutable vsite_hit : Value.t ref option;
  mutable vsite_levels : int; (* scopes the walk probed below [cur], holder included *)
  mutable vsite_path : (scope * int) array; (* skipped scopes + decls snapshots *)
  mutable vsite_streak : int; (* consecutive misses; negative = site disabled *)
  vsite_counted : bool; (* hits and misses feed [ic_stats] (bytecode-tier sites only) *)
  vsite_outer : bool;
      (* known at compile time never to be bound in the innermost scope, so
         the level-0 probe is charged but not performed *)
}

let streak_limit = 32

let make_site ~counted ~outer name =
  { vsite_name = name;
    vslot_origin = 0; vslot_decls = 0; vslot_idx = 0;
    vfull_anchor = None; vfull_hit = None; vfull_path = [||];
    vsite_anchor = None; vsite_hit = None;
    vsite_levels = 0; vsite_path = [||]; vsite_streak = 0; vsite_counted = counted;
    vsite_outer = outer }

let var_site name = make_site ~counted:true ~outer:false name

let count_hit t site = if site.vsite_counted then t.ic.var_hits <- t.ic.var_hits + 1
let count_miss t site = if site.vsite_counted then t.ic.var_misses <- t.ic.var_misses + 1

(* A level-0 find in an origin-tracked scope can be slot-cached: the ref
   sits in [cur.slots] at a fixed index for every scope of this origin at
   this declaration epoch. *)
let vslot_learn site cur r =
  if cur.origin > 0 then begin
    let n = cur.decls in
    let rec idx i = if i >= n then -1 else if cur.slots.(i) == r then i else idx (i + 1) in
    match idx 0 with
    | -1 -> ()
    | i ->
      site.vslot_origin <- cur.origin;
      site.vslot_decls <- n;
      site.vslot_idx <- i
  end

(* No scope in [path] from [i] on has declared a new name since the fill.
   A direct recursion: [Array.for_all]'s loop closure would allocate on
   every cache hit. *)
let rec path_valid path i =
  i >= Array.length path
  ||
  let s, d = path.(i) in
  s.decls = d && path_valid path (i + 1)

let vfull_valid site cur =
  (match site.vfull_anchor with Some a -> a == cur | None -> false)
  && path_valid site.vfull_path 0

let vsite_valid site parent =
  match site.vsite_anchor with
  | Some a when a == parent -> path_valid site.vsite_path 0
  | _ -> false

(* Walk from [start] (= cur.parent) resolving [site.vsite_name], charging 2
   per level when [charged] (lookup semantics; assignment charges nothing),
   and refill both cache levels on success. *)
let vsite_fill t ~charged site cur start =
  let missed = ref [] in
  let rec go depth s =
    if charged then charge t 2;
    match Hashtbl.find_opt s.vars site.vsite_name with
    | Some _ as hit ->
      let path = Array.of_list (List.rev_map (fun sc -> (sc, sc.decls)) !missed) in
      site.vsite_anchor <- Some start;
      site.vsite_hit <- hit;
      site.vsite_levels <- depth + 1;
      site.vsite_path <- path;
      site.vfull_anchor <- Some cur;
      site.vfull_hit <- hit;
      site.vfull_path <- Array.append [| (cur, cur.decls) |] path;
      hit
    | None ->
      missed := s :: !missed;
      (match s.parent with
      | Some p -> go (depth + 1) p
      | None -> None)
  in
  go 0 start

let vsite_miss t site =
  count_miss t site;
  if site.vsite_streak >= 0 then begin
    site.vsite_streak <- site.vsite_streak + 1;
    if site.vsite_streak > streak_limit then site.vsite_streak <- -1
  end

let probe_innermost site cur =
  if site.vsite_outer then None else Hashtbl.find_opt cur.vars site.vsite_name

(* The binding [site] resolves to from [cur], with {!scope_lookup}'s
   charges.  Cache hits return the preallocated result: no allocation. *)
let lookup_binding t cur site =
  if site.vsite_streak < 0 then begin
    count_miss t site;
    lookup_ref t cur site.vsite_name
  end
  else if
    cur.origin > 0 && cur.origin = site.vslot_origin && cur.decls = site.vslot_decls
  then begin
    count_hit t site;
    site.vsite_streak <- 0;
    charge t 2;
    Some cur.slots.(site.vslot_idx)
  end
  else if vfull_valid site cur then begin
    count_hit t site;
    site.vsite_streak <- 0;
    charge t (2 * (Array.length site.vfull_path + 1));
    site.vfull_hit
  end
  else begin
    charge t 2;
    match probe_innermost site cur with
    | Some r as hit ->
      (* found in the innermost scope: re-anchor the full-walk cache *)
      site.vsite_streak <- 0;
      site.vfull_anchor <- Some cur;
      site.vfull_hit <- hit;
      site.vfull_path <- [||];
      vslot_learn site cur r;
      hit
    | None ->
      (match cur.parent with
      | None -> None
      | Some p ->
        if vsite_valid site p then begin
          count_hit t site;
          site.vsite_streak <- 0;
          charge t (2 * site.vsite_levels);
          site.vsite_hit
        end
        else begin
          vsite_miss t site;
          vsite_fill t ~charged:true site cur p
        end)
  end

let cached_lookup t cur site = Option.map ( ! ) (lookup_binding t cur site)

(* Cache hits imply a filled binding. *)
let set_hit hit v = match hit with Some r -> r := v | None -> ()

let cached_assign t cur site v =
  if site.vsite_streak < 0 then begin
    count_miss t site;
    assign_existing t cur site.vsite_name v
  end
  else if
    cur.origin > 0 && cur.origin = site.vslot_origin && cur.decls = site.vslot_decls
  then begin
    count_hit t site;
    site.vsite_streak <- 0;
    cur.slots.(site.vslot_idx) := v;
    true
  end
  else if vfull_valid site cur then begin
    count_hit t site;
    site.vsite_streak <- 0;
    set_hit site.vfull_hit v;
    true
  end
  else
    match probe_innermost site cur with
    | Some r as hit ->
      site.vsite_streak <- 0;
      site.vfull_anchor <- Some cur;
      site.vfull_hit <- hit;
      site.vfull_path <- [||];
      vslot_learn site cur r;
      r := v;
      true
    | None ->
      (match cur.parent with
      | None -> false
      | Some p ->
        if vsite_valid site p then begin
          count_hit t site;
          site.vsite_streak <- 0;
          set_hit site.vsite_hit v;
          true
        end
        else begin
          vsite_miss t site;
          match vsite_fill t ~charged:false site cur p with
          | Some r ->
            r := v;
            true
          | None -> false
        end)

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

let to_i32 t v =
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

(* Parameters in order, missing arguments bound to null. *)
let rec bind_params scope params args =
  match (params, args) with
  | [], _ -> ()
  | p :: ps, v :: vs ->
    declare scope p v;
    bind_params scope ps vs
  | p :: ps, [] ->
    declare scope p Value.Null;
    bind_params scope ps []

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
    if t.depth >= max_call_depth then fail "maximum call stack size exceeded";
    let c = t.closures.(id) in
    let scope = { vars = Hashtbl.create 8; decls = 0; parent = Some c.c_scope; origin = 0; slots = no_slots } in
    bind_params scope c.c_func.f_params args;
    t.depth <- t.depth + 1;
    (match Lazy.force c.c_func.f_code t scope with
    | () ->
      t.depth <- t.depth - 1;
      Value.Null
    | exception Return_exc v ->
      t.depth <- t.depth - 1;
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

   Identifier reads and assignment targets each own a {!var_site}.  Its
   caches charge 2 cycles per level the walk would probe, like [lookup];
   AST-tier sites are uncounted, so [ic_stats] stays a fast-tier figure.
   Scopes are minted as before — a fresh one per [For]/[Block] execution
   and per call, all with origin 0: [var]s here are declared in dynamic
   order (e.g. inside an [if]), which the slot cache cannot assume. *)

type expr_code = t -> scope -> Value.t
type stmt_code = t -> scope -> unit

(* [local] lists every name the innermost scope can ever bind, when that
   is known: a call, [for] or block scope only holds what its own code
   declares (parameters, and [var]s and function declarations outside
   nested [for]s, blocks and functions).  [None] is the global scope,
   which any assignment can extend. *)
let ast_site local name =
  let outer = match local with Some names -> not (List.mem name names) | None -> false in
  make_site ~counted:false ~outer name

(* What a statement declares into the scope it runs in ([if] and [while]
   bodies share it; [for] and blocks open their own). *)
let rec own_decls acc (s : Ast.stmt) =
  match s with
  | Ast.Var (name, _) | Ast.Func_decl (name, _, _) -> name :: acc
  | Ast.If (_, a, b) -> List.fold_left own_decls (List.fold_left own_decls acc a) b
  | Ast.While (_, body) -> List.fold_left own_decls acc body
  | Ast.Expr _ | Ast.For _ | Ast.Return _ | Ast.Break | Ast.Continue | Ast.Block _ -> acc

(* Left to right, like the walk's [List.map]. *)
let rec eval_args t scope = function
  | [] -> []
  | c :: cs ->
    let v = c t scope in
    v :: eval_args t scope cs

let block_scope scope =
  { vars = Hashtbl.create 4; decls = 0; parent = Some scope; origin = 0; slots = no_slots }

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
    let site = ast_site local name in
    fun t scope ->
      tick t 1;
      (match lookup_binding t scope site with
      | Some r -> !r
      | None -> if Hashtbl.mem t.hosts name then Value.Host name else fail "undefined variable %s" name)
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
    let site = ast_site local name in
    fun t scope v -> if not (cached_assign t scope site v) then declare t.globals name v
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
    let c = compile_expr local init in
    fun t scope ->
      tick t 1;
      declare scope name (c t scope)
  | Ast.Func_decl (name, params, body) ->
    let fn = func ~params ~body in
    fun t scope ->
      tick t 1;
      declare scope name (make_closure t fn scope)
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
    let local = Some (List.fold_left own_decls [] (opt init @ opt step @ body)) in
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
      let loop_scope = block_scope scope in
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
    let cb = compile_stmts (Some (List.fold_left own_decls [] body)) body in
    fun t scope ->
      tick t 1;
      cb t (block_scope scope)

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
  let code = lazy (compile_stmts (Some (List.fold_left own_decls params body)) body) in
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
      Hashtbl.iter (fun _ r -> mark_value !r) scope.vars;
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
          let c = compile_expr None e in
          fun () -> result := c t t.globals
        | s ->
          let c = compile_stmt None s in
          fun () -> c t t.globals)
      prog
  in
  List.iter (fun run -> run ()) code;
  !result

let call_function t f args = call_value t f args

(* --- The tier-shared semantic core (see the interface) --- *)

let globals_scope t = t.globals

let new_scope ?(origin = 0) ~parent () =
  { vars = Hashtbl.create 8; decls = 0; parent = Some parent; origin; slots = no_slots }

let scope_declare scope name v = declare scope name v

let scope_lookup t scope name = Option.map ( ! ) (lookup_ref t scope name)

let scope_assign t scope name v =
  if not (assign_existing t scope name v) then declare t.globals name v

let host_exists t name = Hashtbl.mem t.hosts name

let print_values t args =
  let parts = List.map (Value.to_display_string t.heap) args in
  t.output <- String.concat " " parts :: t.output

let array_of_size t n = Value.arr_make t.heap (to_int t n)

let closure_scope t id = t.closures.(id).c_scope

let add_gc_root t provider = t.gc_roots <- provider :: t.gc_roots
