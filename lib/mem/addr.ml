let page_size = 4096
let page_shift = 12
let granule_size = 16
let granules_per_page = page_size / granule_size

let vpn_of_addr a = a lsr page_shift
let addr_of_vpn v = v lsl page_shift
let page_offset a = a land (page_size - 1)

let is_granule_aligned off = off land (granule_size - 1) = 0

let align_up v a = (v + a - 1) land lnot (a - 1)
let align_down v a = v land lnot (a - 1)

let pages_spanned ~addr ~len =
  if len <= 0 then 0
  else vpn_of_addr (addr + len - 1) - vpn_of_addr addr + 1

let bytes_to_pages n = (n + page_size - 1) / page_size
