(* Binary search over the halves of the isolated lowest bit. *)
let lowest_set x =
  let x = ref (x land -x) and n = ref 0 in
  if !x land 0xFFFF_FFFF = 0 then begin n := 32; x := !x lsr 32 end;
  if !x land 0xFFFF = 0 then begin n := !n + 16; x := !x lsr 16 end;
  if !x land 0xFF = 0 then begin n := !n + 8; x := !x lsr 8 end;
  if !x land 0xF = 0 then begin n := !n + 4; x := !x lsr 4 end;
  if !x land 0x3 = 0 then begin n := !n + 2; x := !x lsr 2 end;
  if !x land 0x1 = 0 then !n + 1 else !n
