(* Seeds exactly one D2 (memops-discipline) violation through the raw
   page-to-page copy, hidden behind a module alias: a second page
   duplication outside lib/mem and Memops. *)

module P = Ufork_mem.Page

let clone_frame ~src ~dst = P.copy_into ~src ~dst
