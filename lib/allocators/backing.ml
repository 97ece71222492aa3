(* A shared backing-page budget.

   Each pool's reservation is still its own disjoint address range (the
   paper's no-migration invariant is untouched — a budget page never has
   an identity, only a count), but the number of pages a set of pools may
   have in use at once is bounded by one shared budget.  A fleet gives
   every session's pools the same budget, so sessions contend for memory
   the way a real farm's tabs contend for RAM: when the budget runs dry,
   [alloc_span] fails and the session dies with [Out_of_memory].

   Pure host-side accounting: taking or giving pages charges no simulated
   cycles and emits no telemetry. *)

type t = {
  total : int;
  mutable available : int;
  mutable min_available : int;
  mutable takes : int;
  mutable denials : int;
}

let create ~pages =
  if pages <= 0 then invalid_arg "Backing.create: pages must be positive";
  { total = pages; available = pages; min_available = pages; takes = 0; denials = 0 }

let take t n =
  if n <= t.available then begin
    t.available <- t.available - n;
    t.takes <- t.takes + 1;
    if t.available < t.min_available then t.min_available <- t.available;
    true
  end
  else begin
    t.denials <- t.denials + 1;
    false
  end

let give t n =
  t.available <- min t.total (t.available + n)

let total t = t.total
let min_available t = t.min_available
let takes t = t.takes
let denials t = t.denials
