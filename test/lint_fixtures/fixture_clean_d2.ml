(* False-positive control for D2: duplicating through Memops, reading
   single values and tags off a page, and calling same-named functions
   of other modules are all legal outside lib/mem. A banned name in a
   comment (Page.copy_into, Page.write_from) must not fire either. *)

module Page = Ufork_mem.Page

let clone_frame ~src ~dst = Memops.copy_page_contents ~src ~dst
let first_word p = Page.read_u64 p ~off:0
let tagged p = Page.tag_at p ~off:0 && Page.tagged_count p > 0
let drain buf dst = Buffer.blit buf 0 dst 0 (Buffer.length buf)
let copy_into ~src ~dst = Bytes.blit src 0 dst 0 (Bytes.length src)
let mirror src dst = copy_into ~src ~dst
