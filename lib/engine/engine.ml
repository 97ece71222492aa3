module Value = Value
module Lexer = Lexer
module Parser = Parser
module Ast = Ast
module Eval = Eval
module Bytecode = Bytecode
module Threaded = Threaded

type tier =
  | Ast_tier
  | Bytecode_tier
  | Threaded_tier

type t = {
  env : Pkru_safe.Env.t;
  heap : Value.heap;
  eval : Eval.t;
  tstats : Threaded.stats;
      (* this engine's threaded-tier counters: per-instance, so fleet
         sessions observe only their own IC behaviour *)
}

let create ?seed ?fuel env =
  let heap = Value.create_heap env in
  { env; heap; eval = Eval.create ?seed ?fuel heap; tstats = Threaded.make_stats () }

let heap t = t.heap
let evaluator t = t.eval
let threaded_stats t = t.tstats

let reset_stats t =
  Eval.reset_ic_stats t.eval;
  Threaded.reset_stats t.tstats

let register_host t name fn = Eval.register_host t.eval name fn

(* Workload-phase spans: engine stages become causal spans so a flight
   dump (or Chrome trace) shows which stage a gate crossing or fault
   happened inside.  With no sink installed this is a load and a branch
   per phase — no event, no span, no cycle is ever produced. *)
let with_phase t name f =
  let machine = Pkru_safe.Env.machine t.env in
  let ctx = machine.Sim.Machine.ctx in
  match ctx.Telemetry.Ctx.sink with
  | None -> f ()
  | Some sink ->
    let cpu = machine.Sim.Machine.cpu.Sim.Cpu.id in
    let id =
      Telemetry.Sink.span_enter sink ~ts:(Sim.Machine.cycles machine) ~cpu
        ~kind:Telemetry.Span.Phase name
    in
    Fun.protect
      ~finally:(fun () ->
        match ctx.Telemetry.Ctx.sink with
        | None -> ()
        | Some sink ->
          Telemetry.Sink.span_exit sink ~ts:(Sim.Machine.cycles machine) ~cpu ~id ())
      f

let eval_source ?(tier = Ast_tier) t src =
  let program =
    with_phase t "engine:parse" (fun () ->
        let tokens = Lexer.tokenize t.heap src in
        Parser.parse tokens)
  in
  match tier with
  | Ast_tier -> with_phase t "engine:eval" (fun () -> Eval.run_program t.eval program)
  | Bytecode_tier ->
    with_phase t "engine:bytecode" (fun () -> Bytecode.run t.eval (Bytecode.compile program))
  | Threaded_tier ->
    with_phase t "engine:bytecode" (fun () ->
        Threaded.run ~stats:t.tstats t.eval (Bytecode.compile program))

let eval_string ?tier t text =
  match Value.str_of_string t.heap text with
  | Value.Str s -> eval_source ?tier t s
  | _ -> assert false

let take_output t = Eval.take_output t.eval

let collect t = Eval.gc t.eval

let add_gc_root t provider = Eval.add_gc_root t.eval provider
