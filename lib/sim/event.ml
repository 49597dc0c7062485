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

(* Raw constants that are mechanism properties rather than machine
   parameters: they do not vary across the cost presets. *)
let trap_floor = 800
let toctou_setup_cycles = 600
let kill_cycles = 300
let malloc_bookkeeping_cycles = 120
let free_cycles = 80
let no_unit = -1

type charge = { mutable id : int; mutable units : int; mutable unit : int }

let charge () = { id = 0; units = 0; unit = no_unit }

(* [n] units at [u] cycles each, [u] derived from the preset (and, for
   [Syscall]/[Entry_validation], the payload). *)
let linear c id n u =
  c.id <- id;
  c.units <- n;
  c.unit <- u;
  n * u

(* [n] units whose [cost] no per-key unit derives. *)
let irregular c id n cost =
  c.id <- id;
  c.units <- n;
  c.unit <- no_unit;
  cost

(* Each constructor's whole accounting on one line: its dense code (the
   flat accounting arrays in [Trace] index by it, so the numbering is an
   accounting-format contract: declaration order, append-only, pinned
   by tests; [Syscall] maps to one code regardless of name), its units
   per emission and its cycles. Native ints throughout: the preset's
   int64 fields unbox for free, and an [int64] result would be boxed on
   every computed cost. *)
let measure ~(costs : Costs.t) c event =
  match event with
  | Syscall { trap; _ } ->
      let s = Int64.to_int costs.Costs.syscall in
      linear c 0 1 (if trap then Int.max s trap_floor else s)
  | Entry_validation cycles -> linear c 1 1 cycles
  | Toctou_setup -> linear c 2 1 toctou_setup_cycles
  (* Byte-scaled costs round per emission (sum of roundings is not the
     rounding of the sum), so no per-key unit exists. *)
  | Copy_bytes n ->
      irregular c 3 n (Costs.bytes_cost costs.Costs.copy_per_byte n)
  | Toctou_bytes n ->
      irregular c 4 n (Costs.bytes_cost costs.Costs.toctou_per_byte n)
  | Context_switch -> linear c 5 1 (Int64.to_int costs.Costs.context_switch)
  | Address_space_switch ->
      linear c 6 1 (Int64.to_int costs.Costs.address_space_switch)
  | Page_fault -> linear c 7 1 (Int64.to_int costs.Costs.page_fault)
  | Soft_fault -> linear c 8 1 (Int64.to_int costs.Costs.soft_fault)
  | Demand_zero -> linear c 9 1 (Int64.to_int costs.Costs.page_fault)
  (* Fault classification sub-counters: the cycles are on the enclosing
     [Page_fault]. *)
  | Cow_write_fault -> linear c 10 1 0
  | Copa_write_fault -> linear c 11 1 0
  | Copa_cap_load_fault -> linear c 12 1 0
  | Coa_access_fault -> linear c 13 1 0
  | Fork_fixed -> linear c 14 1 (Int64.to_int costs.Costs.fork_fixed)
  | Spawn -> linear c 15 1 (Int64.to_int costs.Costs.fork_fixed / 4)
  | Thread_create -> linear c 16 1 (Int64.to_int costs.Costs.thread_create)
  | Exit -> linear c 17 1 (Int64.to_int costs.Costs.exit_fixed)
  | Kill -> linear c 18 1 kill_cycles
  | Domain_create -> linear c 19 1 (Int64.to_int costs.Costs.domain_create)
  | Pte_copy n -> linear c 20 n (Int64.to_int costs.Costs.pte_copy)
  | Pte_protect -> linear c 21 1 (Int64.to_int costs.Costs.pte_protect)
  (* The flush batch closing a downgrade sequence: one IPI round-trip
     per remote core that may cache a stale entry. On one core ([n=0])
     the local invalidate is folded into the Pte_protect cost, as
     before; past that the window grows linearly with the machine —
     the term that eventually caps fork scaling. One batch counts as
     one flush protocol step even on a single core (the linter's L4
     window closes either way), and the payload scales with remote
     cores, not with the batch count, so no per-key unit exists. *)
  | Tlb_shootdown n ->
      irregular c 22 1 (Int64.to_int costs.Costs.tlb_ipi * Int.max 0 n)
  | Page_alloc n -> linear c 23 n (Int64.to_int costs.Costs.page_alloc)
  | Page_copy_eager n -> linear c 24 n (Int64.to_int costs.Costs.page_copy)
  | Page_copy_child -> linear c 25 1 (Int64.to_int costs.Costs.page_copy)
  | Page_copy_cow -> linear c 26 1 (Int64.to_int costs.Costs.page_copy)
  | Claim_in_place -> linear c 27 1 0
  | Cow_claim_in_place -> linear c 28 1 0
  | Shm_share -> linear c 29 1 0
  | Granule_scan n -> linear c 30 n (Int64.to_int costs.Costs.granule_scan)
  | Cap_relocate n -> linear c 31 n (Int64.to_int costs.Costs.cap_relocate)
  (* Integer halving rounds per emission. *)
  | Toctou_revalidate n -> irregular c 32 n (n / 2)
  | Malloc -> linear c 33 1 malloc_bookkeeping_cycles
  | Free -> linear c 34 1 free_cycles
  | File_op -> linear c 35 1 (Int64.to_int costs.Costs.file_op)
  | Pipe_op -> linear c 36 1 (Int64.to_int costs.Costs.pipe_op)
  | Shm_open -> linear c 37 1 0
  | Map_library -> linear c 38 1 0
  | Arena_pretouch n -> linear c 39 n 0
  (* The payload is the cost itself; different emissions under the same
     key legitimately differ. *)
  | Compute cycles -> irregular c 40 1 (Int64.to_int cycles)

let id_count = 41

(* The derived views, for the callers off the charging path. The code
   and the units do not depend on the preset. *)
let measured ~costs event =
  let c = charge () in
  ignore (measure ~costs c event);
  c

let id event = (measured ~costs:Costs.ufork event).id
let count event = (measured ~costs:Costs.ufork event).units
let linear_unit ~costs event = (measured ~costs event).unit

(* Counter keys callers read back by name. Deriving them from [to_key]
   keeps the string in exactly one place. *)
let fault_key = to_key Page_fault
let pte_copy_key = to_key (Pte_copy 1)

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
