(** The call-gate micro-benchmarks (paper §5.2 and Figure 3).

    Three FFI workloads, each in a trusted (no gates) and an untrusted
    (gated) variant that are otherwise identical:
    {ul
    {- [Empty]: the callee has no body — the per-call ceiling;}
    {- [Read-One]: the callee performs one heap read;}
    {- [Callback]: the callee re-enters T through a reverse gate.}}

    [sweep] grows the amount of work done inside the gated callee,
    reproducing Figure 3's decay of normalised runtime toward 1.0. *)

type result = {
  name : string;
  ungated_cycles_per_call : float;
  gated_cycles_per_call : float;
  overhead_x : float;
}

val run : ?iterations:int -> unit -> result list
(** Empty, Read-One and Callback, in that order (default 20k iterations
    each). *)

val sweep : loop_counts:int list -> ?iterations:int -> unit -> (int * float) list
(** [(loop_count, normalised_runtime)] pairs for Figure 3. *)

(** {2 Software-TLB identity} *)

type tlb_result = {
  pages : int;   (** working-set size, in pages *)
  iters : int;   (** rounds over the working set *)
  cycles_on : int;     (** simulated cycles with the TLB *)
  cycles_off : int;    (** simulated cycles without — must equal [cycles_on] *)
  tlb : Sim.Tlb.stats; (** hit/miss/flush counts from the TLB-on run *)
}

val tlb_hot : unit -> tlb_result
(** A page-hot read+write loop over a small working set (8 pages x 200k
    rounds), run on two otherwise identical machines with the
    software TLB on and off.  Simulated cycle counts are identical by
    construction; the TLB's host cost is perfbench's to measure. *)
