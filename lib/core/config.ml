type mode =
  | Base
  | Alloc
  | Profiling
  | Mpk

type defenses = {
  sigframe_scrub : bool;
  syscall_filter : bool;
  gate_reverify : bool;
}

let no_defenses = { sigframe_scrub = false; syscall_filter = false; gate_reverify = false }
let all_defenses = { sigframe_scrub = true; syscall_filter = true; gate_reverify = true }

type t = {
  mode : mode;
  mu_backend : Allocators.Pkalloc.mu_backend;
  cost : Sim.Cost.t;
  tlb : bool;
  mitigation : Runtime.Mitigator.policy option;
  defenses : defenses;
}

let make ?(mu_backend = Allocators.Pkalloc.Mu_dlmalloc) ?(cost = Sim.Cost.default) ?mitigation
    ?(defenses = no_defenses) mode =
  { mode; mu_backend; cost; tlb = true; mitigation; defenses }

let mode_to_string = function
  | Base -> "base"
  | Alloc -> "alloc"
  | Profiling -> "profiling"
  | Mpk -> "mpk"

let gates_active t =
  match t.mode with
  | Base | Alloc -> false
  | Profiling | Mpk -> true

let split_heap t =
  match t.mode with
  | Base | Profiling -> false
  | Alloc | Mpk -> true
