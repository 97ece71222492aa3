(** The paper's reported numbers, for side-by-side reporting in the bench
    harness and EXPERIMENTS.md (Kirth et al., EuroSys'22, Tables 1-3 and
    §5.2). *)

type table1_row = {
  t1_suite : string;
  t1_alloc_pct : float;
  t1_mpk_pct : float;
  t1_transitions : int;
  t1_pct_mu : float;
}

val table1 : table1_row list

type table2_row = {
  t2_sub : string;
  t2_alloc_pct : float;
  t2_mpk_pct : float;
  t2_transitions : int option; (* only reported for dom/jslib-scale rows *)
  t2_pct_mu : float;
}

val table2 : table2_row list
val table2_mean_alloc : float
val table2_mean_mpk : float

val micro_overheads : (string * float) list
(** Empty 8.55x, Read-One 7.61x, Callback 6.17x. *)

val servo_alloc_sites : int
(** 12088 *)

val servo_sites_moved : int
(** 274 *)
