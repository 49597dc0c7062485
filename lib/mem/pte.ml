type share = Private | Cow_shared | Coa_shared | Copa_shared | Shm_shared

type t = {
  mutable frame : Phys.frame;
  mutable read : bool;
  mutable write : bool;
  mutable exec : bool;
  mutable cap_load_fault : bool;
  mutable share : share;
}

let make ?(read = true) ?(write = true) ?(exec = false)
    ?(cap_load_fault = false) ?(share = Private) frame =
  { frame; read; write; exec; cap_load_fault; share }

let private_page ~read ~write ~exec frame =
  { frame; read; write; exec; cap_load_fault = false; share = Private }

let pp_share ppf = function
  | Private -> Format.pp_print_string ppf "private"
  | Cow_shared -> Format.pp_print_string ppf "cow"
  | Coa_shared -> Format.pp_print_string ppf "coa"
  | Copa_shared -> Format.pp_print_string ppf "copa"
  | Shm_shared -> Format.pp_print_string ppf "shm"
