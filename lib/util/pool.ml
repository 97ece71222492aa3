(* A work pool over OCaml 5 domains.

   The calling domain and [domains - 1] spawned ones take job indices from
   one [Atomic] counter; each result is written at its job's index, so the
   result array never depends on which domain ran what, or when.  A job
   that raised is re-raised after the join, the lowest index first. *)

let map ?domains f jobs =
  let domains =
    match domains with
    | Some d when d <= 0 -> invalid_arg "Pool.map: domains must be positive"
    | Some d -> d
    | None -> Domain.recommended_domain_count ()
  in
  let n = Array.length jobs in
  let results = Array.make n None and errors = Array.make n None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      (match f jobs.(i) with
      | v -> results.(i) <- Some v
      | exception e -> errors.(i) <- Some (e, Printexc.get_raw_backtrace ()));
      work ()
    end
  in
  let helpers = List.init (Int.max 0 (Int.min domains n - 1)) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join helpers;
  Array.iter
    (function Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
    errors;
  Array.map Option.get results
