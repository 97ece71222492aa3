(* The name -> workload registry shared by the CLI and the bench harness,
   so "unknown name" errors can list every valid spelling. *)

let suites =
  [
    ("dromaeo", Dromaeo.all);
    ("dom", Dromaeo.dom);
    ("v8", Dromaeo.v8);
    ("sunspider", Dromaeo.sunspider);
    ("jslib", Dromaeo.jslib);
    ("kraken", Kraken.all);
    ("octane", Octane.all);
    ("jetstream2", Jetstream.all);
  ]

let suite_names = List.map fst suites

(* The four paper suites; the Dromaeo sub-suites partition [Dromaeo.all],
   so only the parent is included when enumerating benchmarks. *)
let top_suites = [ Dromaeo.all; Kraken.all; Octane.all; Jetstream.all ]

(* (qualified name, bench) for every benchmark, in enumeration order. *)
let entries =
  List.concat_map
    (fun (s : Bench_def.suite) ->
      List.map (fun (b : Bench_def.bench) -> (s.Bench_def.suite_name ^ "/" ^ b.Bench_def.name, b))
        s.Bench_def.benches)
    top_suites

let benches = List.map snd entries

let shared name =
  List.length (List.filter (fun (b : Bench_def.bench) -> b.Bench_def.name = name) benches) > 1

(* One accepted spelling per benchmark: the bare name, or the qualified
   one where several suites use the name. *)
let bench_names =
  List.map
    (fun (q, (b : Bench_def.bench)) -> if shared b.Bench_def.name then q else b.Bench_def.name)
    entries

let suite_of_name name =
  match List.assoc_opt name suites with
  | Some suite -> Ok suite
  | None ->
    Error (Printf.sprintf "unknown suite %S; known: %s" name (String.concat ", " suite_names))

let bench_of_name name =
  match
    List.filter (fun (q, (b : Bench_def.bench)) -> q = name || b.Bench_def.name = name) entries
  with
  | [ (_, bench) ] -> Ok bench
  | [] ->
    Error
      (Printf.sprintf "unknown benchmark %S; known: %s" name (String.concat ", " bench_names))
  | several ->
    Error
      (Printf.sprintf "ambiguous benchmark %S; use one of: %s" name
         (String.concat ", " (List.map fst several)))
