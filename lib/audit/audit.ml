(* Conservative pointer scan of U-accessible memory.

   "U-accessible" is decided exactly the way the simulated MMU decides
   it: a resident page whose pkey is not the trusted key and whose
   protection includes read.  Each 8-byte-aligned word on such a page is
   treated as a candidate pointer; a word that lands inside the MT
   pool's reservation AND inside a live object tracked by the supplied
   metadata table is evidence that the unsafe compartment can name — and
   with MPK off, reach — a trusted-heap object.

   Only resident pages are walked (Page_table.resident_page_list), so
   the scan never demand-materialises and never perturbs fault counts;
   words are read straight out of the page's backing bytes, so no cycles
   are charged and no checked access can fault.  Page order and word
   order are ascending, so reports are deterministic. *)

type finding = {
  f_site : string;
  f_obj_base : int;
  f_obj_size : int;
  f_ptr_addr : int;
  f_ptr_value : int;
}

type site_summary = {
  s_site : string;
  s_objects : int;
  s_bytes : int;
  s_refs : int;
}

type report = {
  scanned_pages : int;
  scanned_words : int;
  findings : finding list;
  sites : site_summary list;
}

let words_per_page = Vmm.Layout.page_size / 8

let summarise findings =
  (* Per site: distinct objects (by base), their summed sizes, and the
     number of referencing words. *)
  let by_site : (string, (int, int) Hashtbl.t * int ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun f ->
      let objects, refs =
        match Hashtbl.find_opt by_site f.f_site with
        | Some cell -> cell
        | None ->
          let cell = (Hashtbl.create 4, ref 0) in
          Hashtbl.add by_site f.f_site cell;
          cell
      in
      Hashtbl.replace objects f.f_obj_base f.f_obj_size;
      incr refs)
    findings;
  Hashtbl.fold
    (fun site (objects, refs) acc ->
      {
        s_site = site;
        s_objects = Hashtbl.length objects;
        s_bytes = Hashtbl.fold (fun _ size sum -> sum + size) objects 0;
        s_refs = !refs;
      }
      :: acc)
    by_site []
  |> List.sort (fun a b -> compare a.s_site b.s_site)

let scan ~metadata pkalloc =
  let machine = Allocators.Pkalloc.machine pkalloc in
  let pages = Vmm.Page_table.resident_page_list machine.Sim.Machine.page_table in
  let scanned_pages = ref 0 in
  let scanned_words = ref 0 in
  let findings = ref [] in
  List.iter
    (fun (page_number, (page : Vmm.Page.t)) ->
      let u_readable =
        (not (Mpk.Pkey.equal page.Vmm.Page.pkey Mpk.Pkey.trusted)) && page.Vmm.Page.prot.Vmm.Prot.read
      in
      if u_readable then begin
        incr scanned_pages;
        let base = Vmm.Layout.addr_of_page page_number in
        for w = 0 to words_per_page - 1 do
          incr scanned_words;
          let value = Int64.to_int (Bytes.get_int64_le page.Vmm.Page.data (w * 8)) in
          match Allocators.Pkalloc.pool_of_addr pkalloc value with
          | Some `Trusted -> (
            match Runtime.Metadata.lookup metadata value with
            | Some r ->
              findings :=
                {
                  f_site = Runtime.Alloc_id.to_string r.Runtime.Metadata.alloc_id;
                  f_obj_base = r.Runtime.Metadata.addr;
                  f_obj_size = r.Runtime.Metadata.size;
                  f_ptr_addr = base + (w * 8);
                  f_ptr_value = value;
                }
                :: !findings
            | None -> () (* dangling or metadata-untracked: not a live leak *))
          | Some `Untrusted | None -> ()
        done
      end)
    pages;
  let findings = List.rev !findings in
  {
    scanned_pages = !scanned_pages;
    scanned_words = !scanned_words;
    findings;
    sites = summarise findings;
  }

let leak_free report = report.findings = []

let corroborate report attr =
  List.map
    (fun s ->
      let faults =
        match Telemetry.Attribution.site_stats attr s.s_site with
        | Some site -> site.Telemetry.Attribution.mpk_faults
        | None -> 0
      in
      (s.s_site, faults > 0))
    report.sites

let promote pkalloc report =
  List.filter_map
    (fun s ->
      if Allocators.Pkalloc.site_quarantined pkalloc s.s_site then None
      else begin
        Allocators.Pkalloc.quarantine_site pkalloc s.s_site;
        Some s.s_site
      end)
    report.sites

(* --- rendering --- *)

let finding_json f =
  let open Util.Json in
  Obj
    [
      ("site", String f.f_site);
      ("obj_base", Int f.f_obj_base);
      ("obj_size", Int f.f_obj_size);
      ("ptr_addr", Int f.f_ptr_addr);
      ("ptr_value", Int f.f_ptr_value);
    ]

let site_summary_json s =
  let open Util.Json in
  Obj
    [
      ("site", String s.s_site);
      ("objects", Int s.s_objects);
      ("bytes", Int s.s_bytes);
      ("refs", Int s.s_refs);
    ]

let to_json report =
  let open Util.Json in
  Obj
    [
      ("schema", String "pkru-safe.audit/1");
      ("scanned_pages", Int report.scanned_pages);
      ("scanned_words", Int report.scanned_words);
      ("leak_free", Bool (leak_free report));
      ("findings_total", Int (List.length report.findings));
      ("sites", List (List.map site_summary_json report.sites));
      ("findings", List (List.map finding_json report.findings));
    ]

let render ?attribution report =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "provenance audit: %d U-accessible pages, %d words scanned\n"
       report.scanned_pages report.scanned_words);
  if leak_free report then
    Buffer.add_string buf "no MT object reachable from the unsafe compartment\n"
  else begin
    let corroborated =
      match attribution with Some attr -> corroborate report attr | None -> []
    in
    Buffer.add_string buf
      (Printf.sprintf "LEAK: %d MT object(s) reachable from U across %d site(s)\n"
         (List.fold_left (fun acc s -> acc + s.s_objects) 0 report.sites)
         (List.length report.sites));
    let header =
      [ "site"; "objects"; "bytes"; "refs" ]
      @ (if attribution = None then [] else [ "trace faults" ])
    in
    let rows =
      List.map
        (fun s ->
          [ s.s_site; string_of_int s.s_objects; string_of_int s.s_bytes; string_of_int s.s_refs ]
          @
          if attribution = None then []
          else if List.assoc_opt s.s_site corroborated = Some true then [ "corroborated" ]
          else [ "latent" ])
        report.sites
    in
    Buffer.add_string buf (Util.Table.render ~header rows)
  end;
  Buffer.contents buf

let to_metrics report =
  let open Telemetry in
  let reg = Metrics.create () in
  Metrics.set
    (Metrics.gauge reg ~help:"Resident U-accessible pages visited by the audit scan"
       "pkru_audit_scanned_pages")
    (float_of_int report.scanned_pages);
  Metrics.set
    (Metrics.gauge reg ~help:"Aligned words examined by the audit scan"
       "pkru_audit_scanned_words")
    (float_of_int report.scanned_words);
  Metrics.incr
    ~by:(List.length report.findings)
    (Metrics.counter reg ~help:"Pointer words in U-accessible memory referencing live MT objects"
       "pkru_audit_findings_total");
  List.iter
    (fun s ->
      let labels = [ ("site", s.s_site) ] in
      Metrics.set
        (Metrics.gauge reg ~help:"Distinct live MT objects reachable from U, per site" ~labels
           "pkru_audit_leaked_objects")
        (float_of_int s.s_objects);
      Metrics.set
        (Metrics.gauge reg ~help:"Bytes of live MT objects reachable from U, per site" ~labels
           "pkru_audit_leaked_bytes")
        (float_of_int s.s_bytes);
      Metrics.incr ~by:s.s_refs
        (Metrics.counter reg
           ~help:"Pointer words in U-accessible memory referencing live MT objects" ~labels
           "pkru_audit_findings_total"))
    report.sites;
  reg

let prometheus report = Telemetry.Metrics.expose (to_metrics report)
