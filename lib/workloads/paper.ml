type table1_row = {
  t1_suite : string;
  t1_alloc_pct : float;
  t1_mpk_pct : float;
  t1_transitions : int;
  t1_pct_mu : float;
}

let table1 =
  [
    { t1_suite = "Dromaeo"; t1_alloc_pct = 5.89; t1_mpk_pct = 11.55;
      t1_transitions = 1_775_338_812; t1_pct_mu = 4.13 };
    { t1_suite = "JetStream2"; t1_alloc_pct = -1.48; t1_mpk_pct = 0.61;
      t1_transitions = 7_025_902; t1_pct_mu = 42.41 };
    { t1_suite = "Kraken"; t1_alloc_pct = -0.11; t1_mpk_pct = -0.41;
      t1_transitions = 5_831_503; t1_pct_mu = 48.59 };
    { t1_suite = "Octane"; t1_alloc_pct = -2.25; t1_mpk_pct = 3.28;
      t1_transitions = 425_426; t1_pct_mu = 16.57 };
  ]

type table2_row = {
  t2_sub : string;
  t2_alloc_pct : float;
  t2_mpk_pct : float;
  t2_transitions : int option;
  t2_pct_mu : float;
}

let table2 =
  [
    { t2_sub = "dom"; t2_alloc_pct = 7.85; t2_mpk_pct = 30.74;
      t2_transitions = Some 734_083_388; t2_pct_mu = 50.30 };
    { t2_sub = "v8"; t2_alloc_pct = -2.31; t2_mpk_pct = 0.53;
      t2_transitions = Some 339_698; t2_pct_mu = 4.59 };
    { t2_sub = "dromaeo"; t2_alloc_pct = 15.87; t2_mpk_pct = 4.64;
      t2_transitions = Some 730_295; t2_pct_mu = 0.57 };
    { t2_sub = "sunspider"; t2_alloc_pct = -1.34; t2_mpk_pct = -0.81;
      t2_transitions = Some 893_923; t2_pct_mu = 3.11 };
    { t2_sub = "jslib"; t2_alloc_pct = 9.39; t2_mpk_pct = 22.65;
      t2_transitions = Some 1_017_275_385; t2_pct_mu = 13.93 };
  ]

let table2_mean_alloc = 5.89
let table2_mean_mpk = 11.55

let micro_overheads = [ ("Empty", 8.55); ("Read-One", 7.61); ("Callback", 6.17) ]

let servo_alloc_sites = 12088
let servo_sites_moved = 274
