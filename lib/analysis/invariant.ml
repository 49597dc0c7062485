type severity = Critical | Error | Warning

type t =
  | Refcount_mismatch
  | Free_frame_state
  | Cap_bounds
  | Cow_writable
  | Share_perms
  | Shm_coherence
  | Private_aliased
  | Orphan_mapping
  | Phys_accounting
  | Cross_area_cap
  | Parent_child_leak
  | Cow_protocol
  | Copa_protocol
  | Coa_protocol
  | Tlb_flush_protocol
  | Copa_relocation
  | Data_race
  | Lock_order
  | Lock_stall
  | Cap_provenance

let all =
  [
    Refcount_mismatch;
    Free_frame_state;
    Cap_bounds;
    Cow_writable;
    Share_perms;
    Shm_coherence;
    Private_aliased;
    Orphan_mapping;
    Phys_accounting;
    Cross_area_cap;
    Parent_child_leak;
    Cow_protocol;
    Copa_protocol;
    Coa_protocol;
    Tlb_flush_protocol;
    Copa_relocation;
    Data_race;
    Lock_order;
    Lock_stall;
    Cap_provenance;
  ]

let id = function
  | Refcount_mismatch -> "S1"
  | Free_frame_state -> "S2"
  | Cap_bounds -> "S3"
  | Cow_writable -> "S4"
  | Share_perms -> "S5"
  | Shm_coherence -> "S6"
  | Private_aliased -> "S7"
  | Orphan_mapping -> "S8"
  | Phys_accounting -> "S9"
  | Cross_area_cap -> "S10"
  | Parent_child_leak -> "S11"
  | Cow_protocol -> "L1"
  | Copa_protocol -> "L2"
  | Coa_protocol -> "L3"
  | Tlb_flush_protocol -> "L4"
  | Copa_relocation -> "L5"
  | Data_race -> "R1"
  | Lock_order -> "R2"
  | Lock_stall -> "R3"
  | Cap_provenance -> "R4"

let name = function
  | Refcount_mismatch -> "refcount-mismatch"
  | Free_frame_state -> "free-frame-state"
  | Cap_bounds -> "cap-bounds"
  | Cow_writable -> "cow-writable"
  | Share_perms -> "share-perms"
  | Shm_coherence -> "shm-coherence"
  | Private_aliased -> "private-aliased"
  | Orphan_mapping -> "orphan-mapping"
  | Phys_accounting -> "phys-accounting"
  | Cross_area_cap -> "cross-area-cap"
  | Parent_child_leak -> "parent-child-leak"
  | Cow_protocol -> "cow-protocol"
  | Copa_protocol -> "copa-protocol"
  | Coa_protocol -> "coa-protocol"
  | Tlb_flush_protocol -> "tlb-flush-protocol"
  | Copa_relocation -> "copa-relocation"
  | Data_race -> "data-race"
  | Lock_order -> "lock-order"
  | Lock_stall -> "lock-stall"
  | Cap_provenance -> "cap-provenance"

let severity = function
  | Refcount_mismatch -> Error
  | Free_frame_state -> Critical
  | Cap_bounds -> Critical
  | Cow_writable -> Critical
  | Share_perms -> Critical
  | Shm_coherence -> Error
  | Private_aliased -> Error
  | Orphan_mapping -> Critical
  | Phys_accounting -> Warning
  | Cross_area_cap -> Critical
  | Parent_child_leak -> Critical
  | Cow_protocol -> Error
  | Copa_protocol -> Error
  | Coa_protocol -> Error
  | Tlb_flush_protocol -> Critical
  | Copa_relocation -> Critical
  | Data_race -> Critical
  | Lock_order -> Critical
  | Lock_stall -> Error
  | Cap_provenance -> Critical

type violation = { invariant : t; subject : string; detail : string }

let pp_severity ppf s =
  Format.pp_print_string ppf
    (match s with
    | Critical -> "critical"
    | Error -> "error"
    | Warning -> "warning")

let pp ppf t = Format.fprintf ppf "%s:%s" (id t) (name t)

let pp_violation ppf v =
  Format.fprintf ppf "[%a] %a: %s — %s" pp v.invariant pp_severity
    (severity v.invariant) v.subject v.detail

let report = function
  | [] -> ""
  | vs ->
      Format.asprintf "%d invariant violation(s):@.%a" (List.length vs)
        (Format.pp_print_list ~pp_sep:Format.pp_print_newline pp_violation)
        vs
