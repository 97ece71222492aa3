type region = {
  base : int;
  size : int;
  mutable prot : Prot.t;
  mutable pkey : Mpk.Pkey.t;
}

type t = {
  pages : Page.t Util.Int_table.t; (* page number -> page *)
  no_page : Page.t; (* [pages]' dummy: never materialised or handed out *)
  mutable regions : region array; (* disjoint, sorted by base *)
  mutable demand_faults : int;
  mutable epoch : int;
}

let create () =
  let no_page = { Page.data = Bytes.empty; prot = Prot.none; pkey = Mpk.Pkey.default } in
  {
    pages = Util.Int_table.create ~dummy:no_page 64;
    no_page;
    regions = [||];
    demand_faults = 0;
    epoch = 0;
  }

let aligned addr = Layout.page_offset addr = 0

(* Any mapping or protection change invalidates cached translations
   (the simulator's software TLB compares this epoch on every lookup). *)
let bump_epoch t = t.epoch <- t.epoch + 1

(* Regions are disjoint and sorted by base, so point and range queries
   binary-search instead of scanning the whole list — demand misses used
   to pay O(regions) per fault. *)

(* First index whose base is strictly greater than [addr]. *)
let insertion_point a addr =
  let lo = ref 0 in
  let hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid).base <= addr then lo := mid + 1 else hi := mid
  done;
  !lo

let region_index t addr =
  let a = t.regions in
  let p = insertion_point a addr in
  if p > 0 && addr < a.(p - 1).base + a.(p - 1).size then Some (p - 1) else None

let region_of t addr =
  match region_index t addr with
  | Some i -> Some t.regions.(i)
  | None -> None

let insert_region t fresh =
  let a = t.regions in
  let p = insertion_point a fresh.base in
  let n = Array.length a in
  let grown = Array.make (n + 1) fresh in
  Array.blit a 0 grown 0 p;
  Array.blit a p grown (p + 1) (n - p);
  t.regions <- grown

let reserve t ~base ~size ~prot ~pkey =
  match Prot.validate prot with
  | Error _ as e -> e
  | Ok prot ->
    if not (aligned base && aligned size) then
      Error (Printf.sprintf "reserve: unaligned range 0x%x+0x%x" base size)
    else if size <= 0 then Error "reserve: empty range"
    else
      (* Disjoint + sorted: an overlap can only involve the would-be
         neighbours of the insertion point. *)
      let a = t.regions in
      let p = insertion_point a base in
      let overlaps_pred = p > 0 && a.(p - 1).base + a.(p - 1).size > base in
      let overlaps_succ = p < Array.length a && a.(p).base < base + size in
      if overlaps_pred || overlaps_succ then
        Error (Printf.sprintf "reserve: overlap at 0x%x" base)
      else begin
        insert_region t { base; size; prot; pkey };
        bump_epoch t;
        Ok ()
      end

let materialise t region page_number =
  let page = Page.create ~prot:region.prot ~pkey:region.pkey in
  Util.Int_table.replace t.pages page_number page;
  page

let lookup t addr =
  let page_number = Layout.page_of_addr addr in
  let page = Util.Int_table.get t.pages page_number in
  if page != t.no_page then Some page
  else
    (match region_of t addr with
    | None -> None
    | Some region ->
      t.demand_faults <- t.demand_faults + 1;
      Some (materialise t region page_number))

let map_now t ~base ~size ~prot ~pkey =
  match reserve t ~base ~size ~prot ~pkey with
  | Error _ as e -> e
  | Ok () ->
    let region =
      match region_of t base with
      | Some r -> r
      | None -> assert false
    in
    let first = Layout.page_of_addr base in
    let last = Layout.page_of_addr (base + size - 1) in
    for page_number = first to last do
      ignore (materialise t region page_number)
    done;
    Ok ()

let is_reserved t addr = region_of t addr <> None

let iter_range_pages t ~base ~size f =
  let first = Layout.page_of_addr base in
  let last = Layout.page_of_addr (base + size - 1) in
  for page_number = first to last do
    let page = Util.Int_table.get t.pages page_number in
    if page != t.no_page then f page
  done

let covering_regions t ~base ~size =
  let a = t.regions in
  let n = Array.length a in
  let start =
    let p = insertion_point a base in
    if p > 0 && a.(p - 1).base + a.(p - 1).size > base then p - 1 else p
  in
  let rec collect i acc =
    if i >= n || a.(i).base >= base + size then List.rev acc
    else collect (i + 1) (a.(i) :: acc)
  in
  collect start []

let pkey_mprotect t ~base ~size pkey =
  if not (aligned base && aligned size) then
    Error (Printf.sprintf "pkey_mprotect: unaligned range 0x%x+0x%x" base size)
  else
    match covering_regions t ~base ~size with
    | [] -> Error (Printf.sprintf "pkey_mprotect: no mapping at 0x%x" base)
    | regions ->
      List.iter (fun r -> r.pkey <- pkey) regions;
      iter_range_pages t ~base ~size (fun page -> page.Page.pkey <- pkey);
      bump_epoch t;
      Ok ()

let mprotect t ~base ~size prot =
  match Prot.validate prot with
  | Error _ as e -> e
  | Ok prot ->
    if not (aligned base && aligned size) then
      Error (Printf.sprintf "mprotect: unaligned range 0x%x+0x%x" base size)
    else
      (match covering_regions t ~base ~size with
      | [] -> Error (Printf.sprintf "mprotect: no mapping at 0x%x" base)
      | regions ->
        List.iter (fun r -> r.prot <- prot) regions;
        iter_range_pages t ~base ~size (fun page -> page.Page.prot <- prot);
        bump_epoch t;
        Ok ())

let resident_pages t = Util.Int_table.length t.pages

(* Deterministic enumeration of materialised pages, sorted by page
   number.  The provenance auditor walks exactly what is resident, so a
   scan never demand-materialises pages (and never perturbs the
   demand-fault count). *)
let resident_page_list t =
  Util.Int_table.fold (fun page_number page acc -> (page_number, page) :: acc) t.pages []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let demand_faults t = t.demand_faults
