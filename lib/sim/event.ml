type t =
  | Syscall of { name : string; trap : bool }
  | Entry_validation of int
  | Toctou_setup
  | Copy_bytes of int
  | Toctou_bytes of int
  | Context_switch
  | Address_space_switch
  | Page_fault
  | Soft_fault
  | Demand_zero
  | Cow_write_fault
  | Copa_write_fault
  | Copa_cap_load_fault
  | Coa_access_fault
  | Fork_fixed
  | Spawn
  | Thread_create
  | Exit
  | Kill
  | Domain_create
  | Pte_copy of int
  | Pte_protect
  | Tlb_shootdown of int
  | Page_alloc of int
  | Page_copy_eager of int
  | Page_copy_child
  | Page_copy_cow
  | Claim_in_place
  | Cow_claim_in_place
  | Shm_share
  | Granule_scan of int
  | Cap_relocate of int
  | Toctou_revalidate of int
  | Malloc
  | Free
  | File_op
  | Pipe_op
  | Shm_open
  | Map_library
  | Arena_pretouch of int
  | Compute of int64

(* Dense stable constructor code, declaration order, starting at 0.
   [Trace]'s flat accounting arrays index by it, so the numbering is an
   accounting-format contract: append-only, pinned by tests. [Syscall]
   maps to one code regardless of name — per-name counters are a key
   (string) concern, resolved by interning, not an id concern. *)
let id = function
  | Syscall _ -> 0
  | Entry_validation _ -> 1
  | Toctou_setup -> 2
  | Copy_bytes _ -> 3
  | Toctou_bytes _ -> 4
  | Context_switch -> 5
  | Address_space_switch -> 6
  | Page_fault -> 7
  | Soft_fault -> 8
  | Demand_zero -> 9
  | Cow_write_fault -> 10
  | Copa_write_fault -> 11
  | Copa_cap_load_fault -> 12
  | Coa_access_fault -> 13
  | Fork_fixed -> 14
  | Spawn -> 15
  | Thread_create -> 16
  | Exit -> 17
  | Kill -> 18
  | Domain_create -> 19
  | Pte_copy _ -> 20
  | Pte_protect -> 21
  | Tlb_shootdown _ -> 22
  | Page_alloc _ -> 23
  | Page_copy_eager _ -> 24
  | Page_copy_child -> 25
  | Page_copy_cow -> 26
  | Claim_in_place -> 27
  | Cow_claim_in_place -> 28
  | Shm_share -> 29
  | Granule_scan _ -> 30
  | Cap_relocate _ -> 31
  | Toctou_revalidate _ -> 32
  | Malloc -> 33
  | Free -> 34
  | File_op -> 35
  | Pipe_op -> 36
  | Shm_open -> 37
  | Map_library -> 38
  | Arena_pretouch _ -> 39
  | Compute _ -> 40

let id_count = 41

let to_key = function
  | Syscall { name; _ } -> "syscall." ^ name
  | Entry_validation _ -> "entry_validation"
  | Toctou_setup -> "toctou_setup"
  | Copy_bytes _ -> "copyio_bytes"
  | Toctou_bytes _ -> "toctou_bytes"
  | Context_switch -> "context_switch"
  | Address_space_switch -> "address_space_switch"
  | Page_fault -> "fault"
  | Soft_fault -> "soft_fault"
  | Demand_zero -> "demand_zero"
  | Cow_write_fault -> "cow_write_fault"
  | Copa_write_fault -> "copa_write_fault"
  | Copa_cap_load_fault -> "copa_cap_load_fault"
  | Coa_access_fault -> "coa_access_fault"
  | Fork_fixed -> "fork"
  | Spawn -> "spawn"
  | Thread_create -> "thread_create"
  | Exit -> "exit"
  | Kill -> "kill"
  | Domain_create -> "domain_create"
  | Pte_copy _ -> "pte_copy"
  | Pte_protect -> "pte_protect"
  | Tlb_shootdown _ -> "tlb_shootdown"
  | Page_alloc _ -> "page_alloc"
  | Page_copy_eager _ -> "page_copy_eager"
  | Page_copy_child -> "page_copy_child"
  | Page_copy_cow -> "page_copy_cow"
  | Claim_in_place -> "claim_in_place"
  | Cow_claim_in_place -> "cow_claim_in_place"
  | Shm_share -> "shm_share"
  | Granule_scan _ -> "granules_scanned"
  | Cap_relocate _ -> "caps_relocated"
  | Toctou_revalidate _ -> "toctou_revalidate_ptes"
  | Malloc -> "malloc"
  | Free -> "free"
  | File_op -> "file_op"
  | Pipe_op -> "pipe_op"
  | Shm_open -> "shm_open"
  | Map_library -> "map_library"
  | Arena_pretouch _ -> "arena_pretouch_pages"
  | Compute _ -> "compute"

let count = function
  | Copy_bytes n | Toctou_bytes n | Page_alloc n | Granule_scan n
  | Cap_relocate n | Toctou_revalidate n | Arena_pretouch n | Pte_copy n
  | Page_copy_eager n ->
      n
  (* One shootdown batch counts as one flush protocol step even on a
     single core ([n = 0] remote IPIs): the linter's L4 window closes
     either way. *)
  | Tlb_shootdown _ -> 1
  | Syscall _ | Entry_validation _ | Toctou_setup | Context_switch
  | Address_space_switch | Page_fault | Soft_fault | Demand_zero
  | Cow_write_fault | Copa_write_fault | Copa_cap_load_fault
  | Coa_access_fault | Fork_fixed | Spawn | Thread_create | Exit | Kill
  | Domain_create | Pte_protect
  | Page_copy_child | Page_copy_cow | Claim_in_place | Cow_claim_in_place
  | Shm_share | Malloc | Free | File_op | Pipe_op | Shm_open | Map_library
  | Compute _ ->
      1

(* Raw constants that are mechanism properties rather than machine
   parameters: they do not vary across the cost presets. *)
let trap_floor = 800
let toctou_setup_cycles = 600
let kill_cycles = 300
let malloc_bookkeeping_cycles = 120
let free_cycles = 80

(* Native ints throughout: the preset's int64 fields unbox for free, and
   an [int64] result would be boxed on every computed cost. *)
let cost ~(costs : Costs.t) event =
  match event with
  | Syscall { trap; _ } ->
      if trap then Int.max (Int64.to_int costs.Costs.syscall) trap_floor
      else Int64.to_int costs.Costs.syscall
  | Entry_validation cycles -> cycles
  | Toctou_setup -> toctou_setup_cycles
  | Copy_bytes n -> Costs.bytes_cost costs.Costs.copy_per_byte n
  | Toctou_bytes n -> Costs.bytes_cost costs.Costs.toctou_per_byte n
  | Context_switch -> Int64.to_int costs.Costs.context_switch
  | Address_space_switch -> Int64.to_int costs.Costs.address_space_switch
  | Page_fault | Demand_zero -> Int64.to_int costs.Costs.page_fault
  | Soft_fault -> Int64.to_int costs.Costs.soft_fault
  | Cow_write_fault | Copa_write_fault | Copa_cap_load_fault
  | Coa_access_fault ->
      0
  | Fork_fixed -> Int64.to_int costs.Costs.fork_fixed
  | Spawn -> Int64.to_int costs.Costs.fork_fixed / 4
  | Thread_create -> Int64.to_int costs.Costs.thread_create
  | Exit -> Int64.to_int costs.Costs.exit_fixed
  | Kill -> kill_cycles
  | Domain_create -> Int64.to_int costs.Costs.domain_create
  | Pte_copy n -> Int64.to_int costs.Costs.pte_copy * n
  | Pte_protect -> Int64.to_int costs.Costs.pte_protect
  (* The flush batch closing a downgrade sequence: one IPI round-trip
     per remote core that may cache a stale entry. On one core ([n=0])
     the local invalidate is folded into the Pte_protect cost, as
     before; past that the window grows linearly with the machine —
     the term that eventually caps fork scaling. *)
  | Tlb_shootdown n -> Int64.to_int costs.Costs.tlb_ipi * Int.max 0 n
  | Page_alloc n -> Int64.to_int costs.Costs.page_alloc * n
  | Page_copy_eager n -> Int64.to_int costs.Costs.page_copy * n
  | Page_copy_child | Page_copy_cow -> Int64.to_int costs.Costs.page_copy
  | Claim_in_place | Cow_claim_in_place | Shm_share -> 0
  | Granule_scan n -> Int64.to_int costs.Costs.granule_scan * n
  | Cap_relocate n -> Int64.to_int costs.Costs.cap_relocate * n
  | Toctou_revalidate n -> n / 2
  | Malloc -> malloc_bookkeeping_cycles
  | Free -> free_cycles
  | File_op -> Int64.to_int costs.Costs.file_op
  | Pipe_op -> Int64.to_int costs.Costs.pipe_op
  | Shm_open | Map_library | Arena_pretouch _ -> 0
  | Compute cycles -> Int64.to_int cycles

let no_unit = -1

let linear_unit ~(costs : Costs.t) event =
  match event with
  (* Byte-scaled costs round per emission (sum of roundings is not the
     rounding of the sum), so no per-key unit exists. *)
  | Copy_bytes _ | Toctou_bytes _ -> no_unit
  (* The payload is the cost itself; different emissions under the same key
     legitimately differ. *)
  | Compute _ -> no_unit
  (* Integer halving rounds per emission. *)
  | Toctou_revalidate _ -> no_unit
  (* The payload scales with remote cores, not with the batch count. *)
  | Tlb_shootdown _ -> no_unit
  | Page_alloc _ -> Int64.to_int costs.Costs.page_alloc
  | Granule_scan _ -> Int64.to_int costs.Costs.granule_scan
  | Cap_relocate _ -> Int64.to_int costs.Costs.cap_relocate
  | Pte_copy _ -> Int64.to_int costs.Costs.pte_copy
  | Page_copy_eager _ -> Int64.to_int costs.Costs.page_copy
  | Arena_pretouch _ -> 0
  | e -> cost ~costs e

(* Counter keys callers read back by name. Deriving them from [to_key]
   keeps the string in exactly one place. *)
let fault_key = to_key Page_fault
let pte_copy_key = to_key (Pte_copy 1)

let pp ppf e =
  match count e with
  | 1 -> Format.pp_print_string ppf (to_key e)
  | n -> Format.fprintf ppf "%s x%d" (to_key e) n

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json e =
  Printf.sprintf "{\"key\":\"%s\",\"n\":%d}" (json_escape (to_key e)) (count e)

let samples =
  [
    Syscall { name = "read"; trap = false };
    Entry_validation 60;
    Toctou_setup;
    Copy_bytes 4096;
    Toctou_bytes 4096;
    Context_switch;
    Address_space_switch;
    Page_fault;
    Soft_fault;
    Demand_zero;
    Cow_write_fault;
    Copa_write_fault;
    Copa_cap_load_fault;
    Coa_access_fault;
    Fork_fixed;
    Spawn;
    Thread_create;
    Exit;
    Kill;
    Domain_create;
    Pte_copy 1;
    Pte_protect;
    Tlb_shootdown 3;
    Page_alloc 1;
    Page_copy_eager 1;
    Page_copy_child;
    Page_copy_cow;
    Claim_in_place;
    Cow_claim_in_place;
    Shm_share;
    Granule_scan 256;
    Cap_relocate 31;
    Toctou_revalidate 10;
    Malloc;
    Free;
    File_op;
    Pipe_op;
    Shm_open;
    Map_library;
    Arena_pretouch 4;
    Compute 1000L;
  ]
