(* One machine's telemetry slots.  Every instrumentation site reads the
   slots of the machine it runs on, so two machines in one process never
   see each other's sink, sampler, census or flight recorder.  [hooked]
   folds the two per-cycle slots into one flag so a charge tests a
   single field; [with_sampler] and [with_census] are the only writers
   of those slots and keep it current. *)

type t = {
  mutable sink : Sink.t option;
  mutable sampler : Sampler.t option;
  mutable census : Census.t option;
  mutable flight : Flight.t option;
  mutable hooked : bool;
}

let create () = { sink = None; sampler = None; census = None; flight = None; hooked = false }

let rehook t = t.hooked <- Option.is_some t.sampler || Option.is_some t.census

let with_sink t sink f =
  let previous = t.sink in
  t.sink <- Some sink;
  Fun.protect ~finally:(fun () -> t.sink <- previous) f

let with_sampler t ?provider sampler f =
  Option.iter (Sampler.set_provider sampler) provider;
  let previous = t.sampler in
  t.sampler <- Some sampler;
  rehook t;
  Fun.protect
    ~finally:(fun () ->
      t.sampler <- previous;
      rehook t)
    f

let with_census t ?provider census f =
  Option.iter (Census.set_provider census) provider;
  let previous = t.census in
  t.census <- Some census;
  rehook t;
  Fun.protect
    ~finally:(fun () ->
      t.census <- previous;
      rehook t)
    f

let set_recorder t recorder = t.flight <- recorder

let with_recorder t recorder f =
  let previous = t.flight in
  t.flight <- Some recorder;
  Fun.protect ~finally:(fun () -> t.flight <- previous) f

let dump t ?(details = []) ~reason () =
  match t.flight with
  | None -> ()
  | Some recorder -> ignore (Flight.record ?sink:t.sink recorder ~reason ~details)
