(* Tests for tagged memory, physical frames, page tables and the MMU. *)

module Addr = Ufork_mem.Addr
module Page = Ufork_mem.Page
module Phys = Ufork_mem.Phys
module Pte = Ufork_mem.Pte
module Page_table = Ufork_mem.Page_table
module Vas = Ufork_mem.Vas
module Capability = Ufork_cheri.Capability
module Perms = Ufork_cheri.Perms
module Memops = Ufork_core.Memops

(* --- Addr --- *)

let test_addr_basics () =
  Alcotest.(check int) "vpn" 3 (Addr.vpn_of_addr (3 * 4096 + 17));
  Alcotest.(check int) "addr of vpn" (3 * 4096) (Addr.addr_of_vpn 3);
  Alcotest.(check int) "offset" 17 (Addr.page_offset (3 * 4096 + 17));
  Alcotest.(check int) "granules" 256 Addr.granules_per_page;
  Alcotest.(check int) "pages for 1 byte" 1 (Addr.bytes_to_pages 1);
  Alcotest.(check int) "pages for 4096" 1 (Addr.bytes_to_pages 4096);
  Alcotest.(check int) "pages for 4097" 2 (Addr.bytes_to_pages 4097);
  Alcotest.(check int) "span none" 0 (Addr.pages_spanned ~addr:0 ~len:0);
  Alcotest.(check int) "span crossing" 2
    (Addr.pages_spanned ~addr:4090 ~len:10)

let prop_align =
  QCheck.Test.make ~name:"align_up/down sandwich" ~count:300
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 6))
    (fun (v, k) ->
      let a = 1 lsl (k + 1) in
      let up = Addr.align_up v a and down = Addr.align_down v a in
      down <= v && v <= up && up - down < a + a && up mod a = 0
      && down mod a = 0)

(* --- Page --- *)

let mk_cap ?(base = 0x4000) ?(len = 64) () =
  Capability.mint ~parent:(Capability.root ()) ~base ~length:len
    ~perms:Perms.user_data

let test_page_rw () =
  let p = Page.create () in
  Page.write_bytes p ~off:100 (Bytes.of_string "hello");
  Alcotest.(check string) "readback" "hello"
    (Bytes.to_string (Page.read_bytes p ~off:100 ~len:5));
  Page.write_u64 p ~off:200 0x1122334455667788L;
  Alcotest.(check int64) "u64" 0x1122334455667788L (Page.read_u64 p ~off:200);
  Page.write_u8 p ~off:0 0x1ff;
  Alcotest.(check int) "u8 masked" 0xff (Page.read_u8 p ~off:0)

let test_page_bounds () =
  let p = Page.create () in
  Alcotest.check_raises "oob" (Invalid_argument "Page: access out of page bounds")
    (fun () -> ignore (Page.read_bytes p ~off:4090 ~len:10))

let test_page_cap_roundtrip () =
  let p = Page.create () in
  let c = mk_cap () in
  Page.store_cap p ~off:32 c;
  Alcotest.(check bool) "tag set" true (Page.tag_at p ~off:32);
  let c' = Page.load_cap p ~off:32 in
  Alcotest.(check bool) "equal" true (Capability.equal c c');
  (* The raw bytes mirror the cursor. *)
  Alcotest.(check int64) "cursor mirrored" (Int64.of_int (Capability.cursor c))
    (Page.read_u64 p ~off:32)

let test_page_tag_clear_on_write () =
  let p = Page.create () in
  Page.store_cap p ~off:16 (mk_cap ());
  (* Any raw byte store overlapping the granule clears the tag. *)
  Page.write_u8 p ~off:20 7;
  Alcotest.(check bool) "tag cleared" false (Page.tag_at p ~off:16);
  let c = Page.load_cap p ~off:16 in
  Alcotest.(check bool) "load yields untagged" false (Capability.tag c)

let test_page_tag_clear_edge () =
  let p = Page.create () in
  Page.store_cap p ~off:16 (mk_cap ());
  Page.store_cap p ~off:48 (mk_cap ());
  (* A write spanning [15..17) touches granules 0 and 1 only. *)
  Page.write_bytes p ~off:15 (Bytes.make 2 'x');
  Alcotest.(check bool) "granule 1 cleared" false (Page.tag_at p ~off:16);
  Alcotest.(check bool) "granule 3 untouched" true (Page.tag_at p ~off:48)

let test_page_store_untagged_clears () =
  let p = Page.create () in
  Page.store_cap p ~off:0 (mk_cap ());
  Page.store_cap p ~off:0 (Capability.clear_tag (mk_cap ()));
  Alcotest.(check bool) "cleared" false (Page.tag_at p ~off:0)

let test_page_alignment () =
  let p = Page.create () in
  Alcotest.check_raises "unaligned"
    (Invalid_argument "Page: capability access must be 16-byte aligned")
    (fun () -> Page.store_cap p ~off:8 (mk_cap ()))

let test_page_copy_deep () =
  let p = Page.create () in
  Page.store_cap p ~off:64 (mk_cap ());
  Page.write_bytes p ~off:0 (Bytes.of_string "abc");
  let q = Page.copy p in
  Page.write_bytes q ~off:0 (Bytes.of_string "xyz");
  Page.write_u8 q ~off:64 0 (* clears tag in q only *);
  Alcotest.(check string) "p data intact" "abc"
    (Bytes.to_string (Page.read_bytes p ~off:0 ~len:3));
  Alcotest.(check bool) "p tag intact" true (Page.tag_at p ~off:64);
  Alcotest.(check bool) "q tag cleared" false (Page.tag_at q ~off:64)

let test_page_iter_map_caps () =
  let p = Page.create () in
  Page.store_cap p ~off:0 (mk_cap ~base:0x1000 ());
  Page.store_cap p ~off:240 (mk_cap ~base:0x2000 ());
  Alcotest.(check int) "count" 2 (Page.tagged_count p);
  Alcotest.(check (list int)) "granules" [ 0; 15 ] (Page.tagged_granules p);
  Page.map_caps p (fun c -> Capability.rebase c ~delta:0x100);
  let c = Page.load_cap p ~off:0 in
  Alcotest.(check int) "relocated" 0x1100 (Capability.base c)

let prop_page_write_preserves_other_bytes =
  QCheck.Test.make ~name:"page writes localized" ~count:200
    QCheck.(pair (int_range 0 4000) (string_of_size Gen.(1 -- 64)))
    (fun (off, s) ->
      QCheck.assume (off + String.length s <= 4096);
      let p = Page.create () in
      Page.write_bytes p ~off (Bytes.of_string s);
      (* Bytes before and after are still zero. *)
      (off = 0 || Page.read_u8 p ~off:(off - 1) = 0)
      && (off + String.length s >= 4096
         || Page.read_u8 p ~off:(off + String.length s) = 0)
      && Bytes.to_string (Page.read_bytes p ~off ~len:(String.length s)) = s)

(* Model test: random operation sequences on a few pages, some written
   and some never written, against a reference kept here — eager zeroed
   bytes plus a granule -> capability map, with copies done the
   long way (raw byte overwrite, then one capability store per tagged
   granule). *)
module Gmap = Map.Make (Int)

type model = { mutable bytes : Bytes.t; mutable caps : Capability.t Gmap.t }

let model_create () = { bytes = Bytes.make 4096 '\000'; caps = Gmap.empty }

let model_clear_tags m ~off ~len =
  if len > 0 then
    for g = off / 16 to (off + len - 1) / 16 do
      m.caps <- Gmap.remove g m.caps
    done

let model_write_bytes m ~off b =
  model_clear_tags m ~off ~len:(Bytes.length b);
  Bytes.blit b 0 m.bytes off (Bytes.length b)

let model_store_cap m ~off cap =
  Bytes.set_int64_le m.bytes off (Int64.of_int (Capability.cursor cap));
  m.caps <-
    (if Capability.tag cap then Gmap.add (off / 16) cap m.caps
     else Gmap.remove (off / 16) m.caps)

(* The source's map is read before the overwrite, so a page copied
   onto itself keeps its tags. *)
let model_copy_contents ~src ~dst =
  let caps = src.caps in
  model_write_bytes dst ~off:0 (Bytes.copy src.bytes);
  Gmap.iter (fun g cap -> model_store_cap dst ~off:(g * 16) cap) caps

let model_map_caps m f =
  Gmap.iter (fun g cap -> model_store_cap m ~off:(g * 16) (f cap)) m.caps

type page_op =
  | Write_bytes of int * int * string  (* page, offset, data *)
  | Write_u8 of int * int * int
  | Write_u64 of int * int * int64
  | Store_cap of int * int * int * bool  (* page, granule, base, tagged *)
  | Clear_tag_at of int * int
  | Clear_all_tags of int
  | Clear of int
  | Copy of int * int  (* src page, replaced page *)
  | Copy_contents of int * int  (* src, dst *)
  | Map_caps of int

let show_page_op = function
  | Write_bytes (p, off, s) ->
      Printf.sprintf "write_bytes p%d @%d len %d" p off (String.length s)
  | Write_u8 (p, off, v) -> Printf.sprintf "write_u8 p%d @%d %d" p off v
  | Write_u64 (p, off, v) -> Printf.sprintf "write_u64 p%d @%d %Ld" p off v
  | Store_cap (p, g, base, tagged) ->
      Printf.sprintf "store_cap p%d g%d base %#x tagged %b" p g base tagged
  | Clear_tag_at (p, g) -> Printf.sprintf "clear_tag_at p%d g%d" p g
  | Clear_all_tags p -> Printf.sprintf "clear_all_tags p%d" p
  | Clear p -> Printf.sprintf "clear p%d" p
  | Copy (s, d) -> Printf.sprintf "p%d := copy p%d" d s
  | Copy_contents (s, d) -> Printf.sprintf "copy_page_contents p%d -> p%d" s d
  | Map_caps p -> Printf.sprintf "map_caps p%d" p

let model_pages = 3

let gen_page_op =
  let open QCheck.Gen in
  let page = int_bound (model_pages - 1) in
  (* Offsets cluster on granule and page edges, where the tag and
     fragment arithmetic can go wrong. *)
  let off_upto hi =
    oneof
      [ int_range 0 hi;
        map (fun o -> min hi o) (oneofl [ 0; 1; 15; 16; 17; 4080; 4095 ]) ]
  in
  let granule = oneof [ int_bound 255; oneofl [ 0; 1; 255 ] ] in
  frequency
    [
      ( 4,
        page >>= fun p ->
        off_upto 4095 >>= fun off ->
        oneof [ int_range 0 40; return (4096 - off) ] >>= fun len ->
        string_size ~gen:char (return (min len (4096 - off))) >|= fun s ->
        Write_bytes (p, off, s) );
      (2, map3 (fun p off v -> Write_u8 (p, off, v)) page (off_upto 4095)
            (int_bound 0x3ff));
      (2, map3 (fun p off v -> Write_u64 (p, off, Int64.of_int v)) page
            (off_upto 4088) int);
      ( 5,
        map3
          (fun (p, g) base tagged -> Store_cap (p, g, base, tagged))
          (pair page granule)
          (map (fun k -> 0x10000 + (k * 16)) (int_bound 1000))
          (frequency [ (4, return true); (1, return false) ]) );
      (2, map2 (fun p g -> Clear_tag_at (p, g)) page granule);
      (1, map (fun p -> Clear_all_tags p) page);
      (1, map (fun p -> Clear p) page);
      (2, map2 (fun s d -> Copy (s, d)) page page);
      (3, map2 (fun s d -> Copy_contents (s, d)) page page);
      (2, map (fun p -> Map_caps p) page);
    ]

(* Relocation stand-in: rebase most capabilities, untag some, so
   map_caps both rewrites and clears slots. *)
let remap cap =
  if Capability.base cap / 16 mod 3 = 0 then Capability.clear_tag cap
  else Capability.rebase cap ~delta:0x100

let apply_page_op pages models = function
  | Write_bytes (p, off, s) ->
      Page.write_bytes pages.(p) ~off (Bytes.of_string s);
      model_write_bytes models.(p) ~off (Bytes.of_string s)
  | Write_u8 (p, off, v) ->
      Page.write_u8 pages.(p) ~off v;
      model_clear_tags models.(p) ~off ~len:1;
      Bytes.set models.(p).bytes off (Char.chr (v land 0xff))
  | Write_u64 (p, off, v) ->
      Page.write_u64 pages.(p) ~off v;
      model_clear_tags models.(p) ~off ~len:8;
      Bytes.set_int64_le models.(p).bytes off v
  | Store_cap (p, g, base, tagged) ->
      let cap = mk_cap ~base ~len:32 () in
      let cap = if tagged then cap else Capability.clear_tag cap in
      Page.store_cap pages.(p) ~off:(g * 16) cap;
      model_store_cap models.(p) ~off:(g * 16) cap
  | Clear_tag_at (p, g) ->
      Page.clear_tag_at pages.(p) ~off:(g * 16);
      models.(p).caps <- Gmap.remove g models.(p).caps
  | Clear_all_tags p ->
      Page.clear_all_tags pages.(p);
      models.(p).caps <- Gmap.empty
  | Clear p ->
      Page.clear pages.(p);
      models.(p) <- model_create ()
  | Copy (s, d) ->
      pages.(d) <- Page.copy pages.(s);
      models.(d) <- { bytes = Bytes.copy models.(s).bytes;
                      caps = models.(s).caps }
  | Copy_contents (s, d) ->
      Memops.copy_page_contents ~src:pages.(s) ~dst:pages.(d);
      model_copy_contents ~src:models.(s) ~dst:models.(d)
  | Map_caps p ->
      Page.map_caps pages.(p) remap;
      model_map_caps models.(p) remap

let same_cap a b =
  Capability.equal a b && Capability.prov a = Capability.prov b

(* Every observation the page offers, read in full; none of them may
   allocate page storage. *)
let page_agrees page m =
  let written = Page.written page in
  let whole = Bytes.make 4100 'x' in
  Page.read_into page ~off:0 ~len:4096 whole ~pos:4;
  let bytes_ok =
    Bytes.equal (Page.read_bytes page ~off:0 ~len:4096) m.bytes
    && Bytes.equal (Bytes.sub whole 4 4096) m.bytes
    && Bytes.sub_string whole 0 4 = "xxxx"
  in
  let granules_ok =
    Page.tagged_granules page = List.map fst (Gmap.bindings m.caps)
    && Page.tagged_count page = Gmap.cardinal m.caps
  in
  let loads_ok =
    List.for_all
      (fun g ->
        let c = Page.load_cap page ~off:(g * 16) in
        match Gmap.find_opt g m.caps with
        | Some mc -> same_cap c mc && Page.tag_at page ~off:(g * 16)
        | None ->
            (not (Capability.tag c))
            && (not (Page.tag_at page ~off:(g * 16)))
            && Capability.cursor c
               = Int64.to_int (Bytes.get_int64_le m.bytes (g * 16)))
      (List.init 256 Fun.id)
  in
  let seen = ref [] in
  Page.iter_caps page (fun g c -> seen := (g, c) :: !seen);
  let iter_ok =
    List.length !seen = Gmap.cardinal m.caps
    && List.for_all2
         (fun (g, c) (mg, mc) -> g = mg && same_cap c mc)
         (List.rev !seen) (Gmap.bindings m.caps)
  in
  bytes_ok && granules_ok && loads_ok && iter_ok
  && Page.written page = written

(* [fresh ()] gives, for one op list, the page constructor and a check
   to run after every op on top of agreement with the model. *)
let page_model_test ~name fresh =
  QCheck.Test.make ~name ~count:300
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun ops -> String.concat "; " (List.map show_page_op ops))
       QCheck.Gen.(list_size (1 -- 30) gen_page_op))
    (fun ops ->
      let make, invariant = fresh () in
      let pages = Array.init model_pages (fun _ -> make ()) in
      let models = Array.init model_pages (fun _ -> model_create ()) in
      List.for_all
        (fun op ->
          apply_page_op pages models op;
          invariant ()
          && List.for_all
               (fun i -> page_agrees pages.(i) models.(i))
               (List.init model_pages Fun.id))
        ops)

let prop_page_model =
  page_model_test ~name:"page = bytes + granule-map model" (fun () ->
      (Page.create, fun () -> true))

(* The same model over pages that share one small spare pool: clears,
   untagged copies and copies from unwritten pages hand storage to the
   pool, and the next first store or copy on any page takes it back, so
   buffers and tag tables move between pages. A reused one must read as
   fresh, and the pool never holds more than its bound. *)
let prop_page_model_pooled =
  page_model_test ~name:"page = model, pages sharing a spare pool" (fun () ->
      let pool = Page.pool ~bound:2 in
      ( (fun () -> Page.create_in pool),
        fun () -> Page.spare_buffers pool <= 2 && Page.spare_tables pool <= 2
      ))

let test_page_unwritten () =
  (* Reads of a never-written page see zeros and allocate nothing; a
     copy from it leaves the destination unwritten too. *)
  let p = Page.create () in
  Alcotest.(check int) "u64 zero" 0 (Int64.to_int (Page.read_u64 p ~off:8));
  Alcotest.(check int) "u8 zero" 0 (Page.read_u8 p ~off:4095);
  Alcotest.(check bool) "cap load untagged" false
    (Capability.tag (Page.load_cap p ~off:0));
  Alcotest.(check bool) "reads keep it unwritten" false (Page.written p);
  let q = Page.create () in
  Page.write_u8 q ~off:3 9;
  Page.store_cap q ~off:32 (mk_cap ());
  Memops.copy_page_contents ~src:p ~dst:q;
  Alcotest.(check bool) "copy of unwritten is unwritten" false
    (Page.written q);
  Alcotest.(check int) "and carries no tags" 0 (Page.tagged_count q);
  Alcotest.(check int) "reads zero" 0 (Page.read_u8 q ~off:3);
  (* A recycled page is back in the fresh state. *)
  Page.store_cap p ~off:0 (mk_cap ());
  Page.clear p;
  Alcotest.(check bool) "clear releases storage" false (Page.written p);
  Alcotest.(check int) "clear drops tags" 0 (Page.tagged_count p)

(* --- Phys --- *)

let test_phys_refcount () =
  let t = Phys.create () in
  let f = Phys.alloc t in
  Alcotest.(check int) "rc 1" 1 (Phys.refcount f);
  Phys.retain t f;
  Alcotest.(check int) "rc 2" 2 (Phys.refcount f);
  Phys.release t f;
  Alcotest.(check int) "in use" 1 (Phys.frames_in_use t);
  Phys.release t f;
  Alcotest.(check int) "freed" 0 (Phys.frames_in_use t);
  Alcotest.check_raises "double free"
    (Invalid_argument "Phys.release: frame is free") (fun () ->
      Phys.release t f)

let test_phys_limit () =
  let t = Phys.create ~limit_frames:2 () in
  let _ = Phys.alloc t and _ = Phys.alloc t in
  Alcotest.check_raises "oom" Phys.Out_of_memory (fun () ->
      ignore (Phys.alloc t))

(* A released frame's storage goes to the machine's spare pool, and a
   later first store takes it back reading as fresh: zeros, no tags. *)
let test_phys_storage_reuse () =
  let t = Phys.create ~cores:2 () in
  let pool = Phys.storage_pool t in
  let bound = Page.pool_bound pool in
  Alcotest.(check int) "two spares per core" 4 bound;
  let f = Phys.alloc t in
  let p = Phys.page f in
  Page.write_bytes p ~off:0 (Bytes.make 4096 '\xa5');
  Page.store_cap p ~off:64 (mk_cap ());
  Page.store_cap p ~off:4080 (mk_cap ());
  Phys.release t f;
  Alcotest.(check int) "buffer pooled" 1 (Page.spare_buffers pool);
  Alcotest.(check int) "table pooled" 1 (Page.spare_tables pool);
  (* The freelist hands the frame straight back, owning no storage. *)
  let g = Phys.alloc t in
  Alcotest.(check int) "same frame" (Phys.id f) (Phys.id g);
  let q = Phys.page g in
  Alcotest.(check bool) "recycled frame unwritten" false (Page.written q);
  Alcotest.(check int) "recycled frame untagged" 0 (Page.tagged_count q);
  (* Its first store takes the pooled buffer and table back. *)
  Page.write_u8 q ~off:100 7;
  Alcotest.(check int) "buffer taken" 0 (Page.spare_buffers pool);
  let expect = Bytes.make 4096 '\000' in
  Bytes.set expect 100 '\007';
  Alcotest.(check bool) "reused buffer reads zeros" true
    (Bytes.equal expect (Page.read_bytes q ~off:0 ~len:4096));
  Page.store_cap q ~off:32 (mk_cap ());
  Alcotest.(check int) "table taken" 0 (Page.spare_tables pool);
  Alcotest.(check (list int)) "reused table holds one tag" [ 2 ]
    (Page.tagged_granules q);
  Alcotest.(check bool) "old tag gone" false (Page.tag_at q ~off:64);
  (* Releasing more frames than the bound keeps the pool at its bound. *)
  let frames =
    List.init ((3 * bound) + 1) (fun i ->
        let f = Phys.alloc t in
        Page.write_u8 (Phys.page f) ~off:i 1;
        Page.store_cap (Phys.page f) ~off:0 (mk_cap ());
        f)
  in
  List.iter (Phys.release t) (g :: frames);
  Alcotest.(check int) "buffers at bound" bound (Page.spare_buffers pool);
  Alcotest.(check int) "tables at bound" bound (Page.spare_tables pool);
  Phys.iter_frames t (fun f ->
      if Phys.refcount f = 0 then begin
        Alcotest.(check bool) "free frame owns no bytes" false
          (Page.written (Phys.page f));
        Alcotest.(check int) "free frame has no tags" 0
          (Page.tagged_count (Phys.page f))
      end)

let test_phys_peak () =
  let t = Phys.create () in
  let a = Phys.alloc t and b = Phys.alloc t in
  Phys.release t a;
  let _ = Phys.alloc t in
  Alcotest.(check int) "peak" 2 (Phys.peak_frames t);
  Alcotest.(check int) "total" 3 (Phys.total_allocated t);
  Phys.release t b

(* --- Page_table --- *)

let test_pt_map_unmap () =
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  let f = Phys.alloc phys in
  Page_table.map pt ~vpn:10 (Pte.make f);
  Alcotest.(check bool) "mapped" true (Page_table.is_mapped pt ~vpn:10);
  Alcotest.(check int) "count" 1 (Page_table.mapped_count pt);
  (match Page_table.lookup pt ~vpn:10 with
  | Some pte -> Alcotest.(check int) "frame" (Phys.id f) (Phys.id pte.Pte.frame)
  | None -> Alcotest.fail "lookup");
  Page_table.unmap pt ~vpn:10;
  Alcotest.(check int) "frame released" 0 (Phys.frames_in_use phys)

let test_pt_double_map () =
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  Page_table.map pt ~vpn:1 (Pte.make (Phys.alloc phys));
  Alcotest.check_raises "double map"
    (Invalid_argument "Page_table.map: vpn 0x1 already mapped") (fun () ->
      Page_table.map pt ~vpn:1 (Pte.make (Phys.alloc phys)))

let test_pt_share_and_replace () =
  let phys = Phys.create () in
  let pt1 = Page_table.create phys and pt2 = Page_table.create phys in
  let f = Phys.alloc phys in
  Page_table.map pt1 ~vpn:5 (Pte.make f);
  Page_table.map_shared pt2 ~vpn:5 (Pte.make ~write:false f);
  Alcotest.(check int) "shared rc" 2 (Phys.refcount f);
  (* CoW resolution: point pt2 at a fresh frame. *)
  let fresh = Phys.alloc phys in
  Page_table.replace_frame pt2 ~vpn:5 fresh;
  Alcotest.(check int) "old rc dropped" 1 (Phys.refcount f);
  (match Page_table.lookup pt2 ~vpn:5 with
  | Some pte -> Alcotest.(check int) "new frame" (Phys.id fresh) (Phys.id pte.Pte.frame)
  | None -> Alcotest.fail "lookup")

let test_pt_range_ops () =
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  List.iter
    (fun v -> Page_table.map pt ~vpn:v (Pte.make (Phys.alloc phys)))
    [ 2; 3; 5 ];
  let seen = ref [] in
  Page_table.iter_range pt ~vpn:0 ~count:10 (fun v _ -> seen := v :: !seen);
  Alcotest.(check (list int)) "ascending with holes" [ 2; 3; 5 ]
    (List.rev !seen);
  Page_table.unmap_range pt ~vpn:0 ~count:4;
  Alcotest.(check int) "only vpn 5 left" 1 (Page_table.mapped_count pt)

let test_pt_unmap_range_holes () =
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  (* A range with no mappings at all is a no-op, not an error. *)
  Page_table.unmap_range pt ~vpn:0 ~count:16;
  List.iter
    (fun v -> Page_table.map pt ~vpn:v (Pte.make (Phys.alloc phys)))
    [ 1; 4; 9 ];
  Alcotest.(check int) "three live" 3 (Phys.frames_in_use phys);
  (* [0,5) covers vpns 1 and 4 plus three holes. *)
  Page_table.unmap_range pt ~vpn:0 ~count:5;
  Alcotest.(check int) "two released" 1 (Phys.frames_in_use phys);
  Alcotest.(check bool) "vpn 9 untouched" true (Page_table.is_mapped pt ~vpn:9);
  Page_table.unmap_range pt ~vpn:9 ~count:1;
  Alcotest.(check int) "all released" 0 (Phys.frames_in_use phys)

let test_pt_remap_after_unmap () =
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  Page_table.map pt ~vpn:7 (Pte.make (Phys.alloc phys));
  Page_table.unmap pt ~vpn:7;
  (* The slot is free again: mapping it a second time must not raise. *)
  Page_table.map pt ~vpn:7 (Pte.make (Phys.alloc phys));
  Alcotest.(check int) "one mapping" 1 (Page_table.mapped_count pt);
  Alcotest.(check int) "one frame" 1 (Phys.frames_in_use phys)

let test_pt_replace_keeps_other_aliases () =
  (* replace_frame hands the refcount over: the old frame survives as
     long as other tables still alias it. *)
  let phys = Phys.create () in
  let pt1 = Page_table.create phys and pt2 = Page_table.create phys in
  let f = Phys.alloc phys in
  Page_table.map pt1 ~vpn:3 (Pte.make f);
  Page_table.map_shared pt2 ~vpn:3 (Pte.make ~write:false f);
  Page_table.map_shared pt1 ~vpn:8 (Pte.make ~write:false f);
  Alcotest.(check int) "three aliases" 3 (Phys.refcount f);
  Page_table.replace_frame pt2 ~vpn:3 (Phys.alloc phys);
  Alcotest.(check int) "two aliases left" 2 (Phys.refcount f);
  Page_table.unmap pt1 ~vpn:3;
  Page_table.unmap pt1 ~vpn:8;
  (* Only pt2's replacement frame remains live. *)
  Alcotest.(check int) "replacement survives" 1 (Phys.frames_in_use phys)

let test_pt_shared_alias_counts () =
  (* map_shared retains once per alias and unmap releases symmetrically,
     so the frame frees exactly when the last alias goes. *)
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  let f = Phys.alloc phys in
  Page_table.map pt ~vpn:1 (Pte.make f);
  List.iter
    (fun v -> Page_table.map_shared pt ~vpn:v (Pte.make ~write:false f))
    [ 2; 3; 4 ];
  Alcotest.(check int) "four aliases" 4 (Phys.refcount f);
  Alcotest.(check int) "one frame backs them" 1 (Phys.frames_in_use phys);
  List.iter (fun v -> Page_table.unmap pt ~vpn:v) [ 1; 2; 3 ];
  Alcotest.(check int) "last alias holds it" 1 (Phys.frames_in_use phys);
  Alcotest.(check int) "rc 1" 1 (Phys.refcount f);
  Page_table.unmap pt ~vpn:4;
  Alcotest.(check int) "freed with last alias" 0 (Phys.frames_in_use phys)

let test_pt_map_range () =
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  (* Pre-existing mappings survive a range fill untouched. *)
  let keep = Phys.alloc phys in
  Page_table.map pt ~vpn:3 (Pte.make keep);
  let offered = ref [] in
  let installed =
    Page_table.map_range pt ~vpn:1 ~count:5 (fun v ->
        offered := v :: !offered;
        if v = 4 then None else Some (Pte.make (Phys.alloc phys)))
  in
  Alcotest.(check int) "installed = offered minus declined" 3 installed;
  (* vpn 3 was already mapped: never passed to f. *)
  Alcotest.(check (list int)) "holes offered ascending" [ 1; 2; 4; 5 ]
    (List.rev !offered);
  Alcotest.(check bool) "declined vpn stays unmapped" false
    (Page_table.is_mapped pt ~vpn:4);
  (match Page_table.lookup pt ~vpn:3 with
  | Some pte ->
      Alcotest.(check int) "existing frame kept" (Phys.id keep)
        (Phys.id pte.Pte.frame)
  | None -> Alcotest.fail "vpn 3 lost");
  Alcotest.(check int) "refcount discipline" 4 (Phys.frames_in_use phys)

let test_pt_fold_range () =
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  List.iter
    (fun v -> Page_table.map pt ~vpn:v (Pte.make (Phys.alloc phys)))
    [ 2; 3; 5; 40 ];
  let seen =
    Page_table.fold_range pt ~vpn:0 ~count:10 ~init:[] ~f:(fun v _ acc ->
        v :: acc)
  in
  Alcotest.(check (list int)) "ascending, holes skipped, range bounded"
    [ 2; 3; 5 ] (List.rev seen);
  Alcotest.(check int) "empty range" 0
    (Page_table.fold_range pt ~vpn:6 ~count:30 ~init:0 ~f:(fun _ _ n -> n + 1))

(* map_range over a random hole pattern agrees with per-vpn map: same
   final mapped set, and the return value counts exactly the holes. *)
let prop_pt_map_range_fills_holes =
  QCheck.Test.make ~name:"map_range fills exactly the holes" ~count:200
    QCheck.(pair (list_of_size Gen.(0 -- 12) (int_range 0 15)) (int_range 0 8))
    (fun (pre, vpn0) ->
      let count = 8 in
      let phys = Phys.create () in
      let pt = Page_table.create phys in
      List.iter
        (fun v ->
          if not (Page_table.is_mapped pt ~vpn:v) then
            Page_table.map pt ~vpn:v (Pte.make (Phys.alloc phys)))
        pre;
      let before = Page_table.mapped_count pt in
      let holes =
        List.filter
          (fun v -> not (Page_table.is_mapped pt ~vpn:v))
          (List.init count (fun i -> vpn0 + i))
      in
      let installed =
        Page_table.map_range pt ~vpn:vpn0 ~count (fun _ ->
            Some (Pte.make (Phys.alloc phys)))
      in
      installed = List.length holes
      && Page_table.mapped_count pt = before + installed
      && List.for_all (fun v -> Page_table.is_mapped pt ~vpn:v) holes)

(* fold_range is fold restricted to the window. *)
let prop_pt_fold_range_matches_fold =
  QCheck.Test.make ~name:"fold_range = fold restricted to range" ~count:200
    QCheck.(
      triple
        (list_of_size Gen.(0 -- 12) (int_range 0 31))
        (int_range 0 31) (int_range 0 16))
    (fun (vpns, vpn0, count) ->
      let phys = Phys.create () in
      let pt = Page_table.create phys in
      List.iter
        (fun v ->
          if not (Page_table.is_mapped pt ~vpn:v) then
            Page_table.map pt ~vpn:v (Pte.make (Phys.alloc phys)))
        vpns;
      let ranged =
        Page_table.fold_range pt ~vpn:vpn0 ~count ~init:[] ~f:(fun v _ acc ->
            v :: acc)
      in
      let whole =
        Page_table.fold pt ~init:[] ~f:(fun v _ acc ->
            if v >= vpn0 && v < vpn0 + count then v :: acc else acc)
      in
      ranged = whole)

(* --- Page_table against a model ---

   Random sequences of every mutating operation, checked after each step
   against an [Int] map from vpn to frame: lookups, the ascending order
   of every walk, the mapped count, every frame's refcount and which
   operations raise [Invalid_argument]. Vpns cluster at 0, at leaf edges
   (511/512/513) and far apart, so leaves and the directory both grow. *)

module Imap = Map.Make (Int)

type pt_op =
  | Pt_map of int
  | Pt_map_shared of int * int (* vpn, vpn whose frame it aliases *)
  | Pt_unmap of int
  | Pt_unmap_range of int * int
  | Pt_replace of int
  | Pt_map_range of int * int * int (* vpn, count, skip vpns divisible by *)

let show_pt_op = function
  | Pt_map v -> Printf.sprintf "map %d" v
  | Pt_map_shared (v, s) -> Printf.sprintf "map_shared %d (frame of %d)" v s
  | Pt_unmap v -> Printf.sprintf "unmap %d" v
  | Pt_unmap_range (v, c) -> Printf.sprintf "unmap_range %d+%d" v c
  | Pt_replace v -> Printf.sprintf "replace_frame %d" v
  | Pt_map_range (v, c, k) -> Printf.sprintf "map_range %d+%d skip %%%d" v c k

let far = 1 lsl 20

let pt_edge_vpns =
  [ 0; 1; 510; 511; 512; 513; 1023; 1024; 1025; 16384; far - 1; far;
    far + 511; far + 512; (3 * far) + 7 ]

let gen_pt_op =
  let open QCheck.Gen in
  let vpn =
    frequency
      [ (3, oneofl pt_edge_vpns); (2, int_bound 1100);
        (1, map (fun v -> far - 600 + v) (int_bound 1200)) ]
  in
  let count = frequency [ (4, int_bound 6); (2, oneofl [ 511; 512; 513; 600 ]) ] in
  frequency
    [
      (5, map (fun v -> Pt_map v) vpn);
      (2, map2 (fun v s -> Pt_map_shared (v, s)) vpn vpn);
      (3, map (fun v -> Pt_unmap v) vpn);
      (2, map2 (fun v c -> Pt_unmap_range (v, c)) vpn
            (frequency [ (4, count); (1, return ((3 * far) + 8)) ]));
      (2, map (fun v -> Pt_replace v) vpn);
      (2, map3 (fun v c k -> Pt_map_range (v, c, k)) vpn count (int_range 1 4));
    ]

let raises_invalid f =
  match f () with () -> false | exception Invalid_argument _ -> true

(* Apply [op] to the table; return whether it raised exactly when the
   model says it should (and called back exactly where it should), and
   the next model. *)
let apply_pt_op phys pt model op =
  match op with
  | Pt_map v ->
      let f = Phys.alloc phys in
      let err = raises_invalid (fun () -> Page_table.map pt ~vpn:v (Pte.make f)) in
      if err then Phys.release phys f;
      (err = Imap.mem v model, if err then model else Imap.add v f model)
  | Pt_map_shared (v, src) -> (
      match Imap.find_opt src model with
      | None -> (true, model)
      | Some f ->
          let err =
            raises_invalid (fun () ->
                Page_table.map_shared pt ~vpn:v (Pte.make ~write:false f))
          in
          (* map_shared retains before it checks; a failed call leaves
             that reference with the caller. *)
          if err then Phys.release phys f;
          (err = Imap.mem v model, if err then model else Imap.add v f model))
  | Pt_unmap v ->
      let err = raises_invalid (fun () -> Page_table.unmap pt ~vpn:v) in
      (err = not (Imap.mem v model), Imap.remove v model)
  | Pt_unmap_range (v, c) ->
      Page_table.unmap_range pt ~vpn:v ~count:c;
      (true, Imap.filter (fun u _ -> u < v || u >= v + c) model)
  | Pt_replace v ->
      let f = Phys.alloc phys in
      let err = raises_invalid (fun () -> Page_table.replace_frame pt ~vpn:v f) in
      if err then Phys.release phys f;
      (err = not (Imap.mem v model), if err then model else Imap.add v f model)
  | Pt_map_range (v, c, k) ->
      let asked = ref [] in
      let installed =
        Page_table.map_range pt ~vpn:v ~count:c (fun u ->
            if u mod k = 0 then begin
              asked := (u, None) :: !asked;
              None
            end
            else begin
              let f = Phys.alloc phys in
              asked := (u, Some f) :: !asked;
              Some (Pte.make f)
            end)
      in
      let asked = List.rev !asked in
      let holes =
        List.filter (fun u -> not (Imap.mem u model)) (List.init c (( + ) v))
      in
      let fresh = List.filter_map (fun (u, f) -> Option.map (fun f -> (u, f)) f) asked in
      ( List.map fst asked = holes && installed = List.length fresh,
        List.fold_left (fun m (u, f) -> Imap.add u f m) model fresh )

let pt_agrees phys pt model =
  let expected = List.map (fun (v, f) -> (v, Phys.id f)) (Imap.bindings model) in
  let probes = pt_edge_vpns @ List.map fst expected in
  let lookups_ok =
    List.for_all
      (fun v ->
        let m = Option.map Phys.id (Imap.find_opt v model) in
        Option.map (fun p -> Phys.id p.Pte.frame) (Page_table.lookup pt ~vpn:v) = m
        && Page_table.is_mapped pt ~vpn:v = (m <> None))
      probes
  in
  let entry v (pte : Pte.t) = (v, Phys.id pte.Pte.frame) in
  let folded =
    List.rev (Page_table.fold pt ~init:[] ~f:(fun v p acc -> entry v p :: acc))
  in
  let ranges_ok =
    List.for_all
      (fun (lo, n) ->
        let window = List.filter (fun (v, _) -> v >= lo && v < lo + n) expected in
        let seen = ref [] in
        Page_table.iter_range pt ~vpn:lo ~count:n (fun v p -> seen := entry v p :: !seen);
        let ranged =
          Page_table.fold_range pt ~vpn:lo ~count:n ~init:[] ~f:(fun v p acc ->
              entry v p :: acc)
        in
        List.rev !seen = window && List.rev ranged = window)
      [ (0, 1100); (500, 30); (far - 700, 1400); ((3 * far) + 7, 1) ]
  in
  let refs = Hashtbl.create 16 in
  Imap.iter
    (fun _ f ->
      let fid = Phys.id f in
      Hashtbl.replace refs fid
        (1 + Option.value ~default:0 (Hashtbl.find_opt refs fid)))
    model;
  let refcounts_ok =
    Phys.fold_frames phys ~init:true ~f:(fun ok f ->
        ok
        && Phys.refcount f
           = Option.value ~default:0 (Hashtbl.find_opt refs (Phys.id f)))
  in
  lookups_ok && folded = expected && ranges_ok && refcounts_ok
  && Page_table.mapped_count pt = Imap.cardinal model

let prop_pt_model =
  QCheck.Test.make ~name:"page table = int map model" ~count:200
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun ops -> String.concat "; " (List.map show_pt_op ops))
       QCheck.Gen.(list_size (1 -- 40) gen_pt_op))
    (fun ops ->
      let phys = Phys.create () in
      let pt = Page_table.create phys in
      let rec go model = function
        | [] -> true
        | op :: rest ->
            let ok, model = apply_pt_op phys pt model op in
            ok && pt_agrees phys pt model && go model rest
      in
      go Imap.empty ops)

(* --- Vas --- *)

let setup_vas () =
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  (* Map vpns 1 and 2 rw; vpn 3 read-only; vpn 4 with cap-load fault. *)
  Page_table.map pt ~vpn:1 (Pte.make (Phys.alloc phys));
  Page_table.map pt ~vpn:2 (Pte.make (Phys.alloc phys));
  Page_table.map pt ~vpn:3 (Pte.make ~write:false (Phys.alloc phys));
  Page_table.map pt ~vpn:4 (Pte.make ~cap_load_fault:true (Phys.alloc phys));
  let via =
    Capability.mint ~parent:(Capability.root ()) ~base:4096 ~length:(4 * 4096)
      ~perms:Perms.user_data
  in
  (pt, via)

let test_vas_rw_cross_page () =
  let pt, via = setup_vas () in
  let s = String.init 100 (fun i -> Char.chr (i mod 256)) in
  (* Write crossing the vpn1/vpn2 boundary. *)
  Vas.write_bytes pt ~via ~addr:(2 * 4096 - 50) (Bytes.of_string s);
  Alcotest.(check string) "cross-page roundtrip" s
    (Bytes.to_string (Vas.read_bytes pt ~via ~addr:(2 * 4096 - 50) ~len:100))

let test_vas_u64 () =
  let pt, via = setup_vas () in
  Vas.write_u64 pt ~via ~addr:5000 77L;
  Alcotest.(check int64) "u64" 77L (Vas.read_u64 pt ~via ~addr:5000)

let expect_fault access f =
  match f () with
  | exception Vas.Fault { access = a; _ } when a = access -> ()
  | exception Vas.Fault { access = a; _ } ->
      Alcotest.fail
        (Format.asprintf "wrong fault: %a (expected %a)" Vas.pp_access a
           Vas.pp_access access)
  | _ -> Alcotest.fail "expected fault"

let test_vas_write_fault_on_ro () =
  let pt, via = setup_vas () in
  expect_fault Vas.Write (fun () ->
      Vas.write_bytes pt ~via ~addr:(3 * 4096) (Bytes.of_string "x"))

let test_vas_unmapped_fault () =
  let pt, via = setup_vas () in
  ignore via;
  let via5 =
    Capability.mint ~parent:(Capability.root ()) ~base:(5 * 4096) ~length:64
      ~perms:Perms.user_data
  in
  expect_fault Vas.Read (fun () ->
      ignore (Vas.read_bytes pt ~via:via5 ~addr:(5 * 4096) ~len:1))

let test_vas_cap_load_fault_bit () =
  let pt, via = setup_vas () in
  let c = mk_cap () in
  (* Store through vpn 1 (no fault bit), load back fine. *)
  Vas.store_cap pt ~via ~addr:(4096 + 16) c;
  Alcotest.(check bool) "roundtrip" true
    (Capability.equal c (Vas.load_cap pt ~via ~addr:(4096 + 16)));
  (* vpn 4 has the CoPA bit: data reads fine, capability loads fault. *)
  ignore (Vas.read_bytes pt ~via ~addr:(4 * 4096) ~len:16);
  expect_fault Vas.Cap_load (fun () ->
      ignore (Vas.load_cap pt ~via ~addr:(4 * 4096)))

let test_vas_cap_checks_dominate () =
  (* The capability check fires before the MMU lookup. *)
  let pt, _ = setup_vas () in
  let narrow =
    Capability.mint ~parent:(Capability.root ()) ~base:4096 ~length:8
      ~perms:Perms.user_data
  in
  (match Vas.read_bytes pt ~via:narrow ~addr:4096 ~len:16 with
  | exception Capability.Violation _ -> ()
  | _ -> Alcotest.fail "expected Violation");
  let no_store = Capability.restrict_perms narrow Perms.load in
  match Vas.write_bytes pt ~via:no_store ~addr:4096 (Bytes.of_string "abc") with
  | exception Capability.Violation _ -> ()
  | _ -> Alcotest.fail "expected Violation"

let test_vas_unaligned_cap () =
  let pt, via = setup_vas () in
  match Vas.load_cap pt ~via ~addr:(4096 + 8) with
  | exception Capability.Violation _ -> ()
  | _ -> Alcotest.fail "expected Violation"

let test_vas_kernel_paths () =
  let pt, via = setup_vas () in
  ignore via;
  Vas.kernel_write_bytes pt ~addr:(3 * 4096) (Bytes.of_string "kernel");
  Alcotest.(check string) "kernel write ignores perms" "kernel"
    (Bytes.to_string (Vas.kernel_read_bytes pt ~addr:(3 * 4096) ~len:6));
  let c = mk_cap () in
  Vas.kernel_store_cap pt ~addr:(4 * 4096 + 32) c;
  Alcotest.(check bool) "kernel cap load skips CoPA bit" true
    (Capability.equal c (Vas.kernel_load_cap pt ~addr:(4 * 4096 + 32)))

let test_vas_kernel_clear_tags () =
  (* A range from inside vpn 1's granule 253 to inside vpn 3's granule 2,
     across the unmapped vpn 2: both partly covered end granules lose
     their tags, their neighbours keep them, and the hole is skipped. *)
  let phys = Phys.create () in
  let pt = Page_table.create phys in
  List.iter (fun v -> Page_table.map pt ~vpn:v (Pte.make (Phys.alloc phys)))
    [ 1; 3 ];
  let fill vpn =
    let p = Vas.kernel_page pt ~vpn in
    for g = 0 to 255 do
      Page.store_cap p ~off:(g * 16) (mk_cap ~base:(0x10000 + (g * 16)) ())
    done;
    p
  in
  let p1 = fill 1 and p3 = fill 3 in
  let addr = 4096 + (253 * 16) + 5 in
  let last = (3 * 4096) + (2 * 16) + 9 in
  Vas.kernel_clear_tags pt ~addr ~len:(last - addr + 1);
  let cleared p = List.filter (fun g -> not (Page.tag_at p ~off:(g * 16)))
      (List.init 256 Fun.id) in
  Alcotest.(check (list int)) "vpn 1: tail granules" [ 253; 254; 255 ]
    (cleared p1);
  Alcotest.(check (list int)) "vpn 3: head granules" [ 0; 1; 2 ] (cleared p3);
  Alcotest.(check bool) "vpn 2 still unmapped" false
    (Page_table.is_mapped pt ~vpn:2);
  (* Tag clears never touch the bytes. *)
  Alcotest.(check int64) "bytes kept"
    (Int64.of_int (0x10000 + (254 * 16)))
    (Page.read_u64 p1 ~off:(254 * 16))

let prop_vas_roundtrip =
  QCheck.Test.make ~name:"vas write/read roundtrip" ~count:200
    QCheck.(pair (int_range 0 8100) (string_of_size Gen.(1 -- 200)))
    (fun (off, s) ->
      let pt, via = setup_vas () in
      let addr = 4096 + off in
      QCheck.assume (addr + String.length s <= 3 * 4096);
      Vas.write_bytes pt ~via ~addr (Bytes.of_string s);
      Bytes.to_string (Vas.read_bytes pt ~via ~addr ~len:(String.length s)) = s)

let qt = QCheck_alcotest.to_alcotest

let suite =
  [
    ("addr basics", `Quick, test_addr_basics);
    ("page rw", `Quick, test_page_rw);
    ("page bounds", `Quick, test_page_bounds);
    ("page cap roundtrip", `Quick, test_page_cap_roundtrip);
    ("page tag clear on write", `Quick, test_page_tag_clear_on_write);
    ("page tag clear edges", `Quick, test_page_tag_clear_edge);
    ("page store untagged", `Quick, test_page_store_untagged_clears);
    ("page cap alignment", `Quick, test_page_alignment);
    ("page deep copy", `Quick, test_page_copy_deep);
    ("page iter/map caps", `Quick, test_page_iter_map_caps);
    ("page unwritten reads and copies", `Quick, test_page_unwritten);
    ("phys refcount", `Quick, test_phys_refcount);
    ("phys limit", `Quick, test_phys_limit);
    ("phys peak", `Quick, test_phys_peak);
    ("phys storage reuse reads fresh", `Quick, test_phys_storage_reuse);
    ("pt map/unmap", `Quick, test_pt_map_unmap);
    ("pt double map", `Quick, test_pt_double_map);
    ("pt share/replace", `Quick, test_pt_share_and_replace);
    ("pt range ops", `Quick, test_pt_range_ops);
    ("pt unmap_range over holes", `Quick, test_pt_unmap_range_holes);
    ("pt remap after unmap", `Quick, test_pt_remap_after_unmap);
    ("pt replace keeps aliases", `Quick, test_pt_replace_keeps_other_aliases);
    ("pt shared alias counts", `Quick, test_pt_shared_alias_counts);
    ("pt map_range", `Quick, test_pt_map_range);
    ("pt fold_range", `Quick, test_pt_fold_range);
    ("vas rw cross page", `Quick, test_vas_rw_cross_page);
    ("vas u64", `Quick, test_vas_u64);
    ("vas ro write fault", `Quick, test_vas_write_fault_on_ro);
    ("vas unmapped fault", `Quick, test_vas_unmapped_fault);
    ("vas CoPA fault bit", `Quick, test_vas_cap_load_fault_bit);
    ("vas cap checks first", `Quick, test_vas_cap_checks_dominate);
    ("vas unaligned cap", `Quick, test_vas_unaligned_cap);
    ("vas kernel paths", `Quick, test_vas_kernel_paths);
    ("vas kernel_clear_tags range", `Quick, test_vas_kernel_clear_tags);
    qt prop_align;
    qt prop_page_write_preserves_other_bytes;
    qt prop_page_model;
    qt prop_page_model_pooled;
    qt prop_vas_roundtrip;
    qt prop_pt_map_range_fills_holes;
    qt prop_pt_fold_range_matches_fold;
    qt prop_pt_model;
  ]
