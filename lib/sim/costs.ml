type t = {
  label : string;
  syscall : int64;
  context_switch : int64;
  address_space_switch : int64;
  page_fault : int64;
  soft_fault : int64;
  fork_fixed : int64;
  thread_create : int64;
  exit_fixed : int64;
  pte_copy : int64;
  pte_protect : int64;
  tlb_ipi : int64;
  page_alloc : int64;
  page_copy : int64;
  granule_scan : int64;
  cap_relocate : int64;
  domain_create : int64;
  copy_per_byte : float;
  toctou_per_byte : float;
  file_op : int64;
  pipe_op : int64;
}

(* Calibration notes (all at 2.5 GHz, so 1 us = 2500 cycles):

   - Context1 (Fig. 9): one iteration is 2 pipe writes + 2 pipe reads + 2
     blocking context switches. uFork: 4*200 + 2*2600 + small = ~6.1 kcyc =
     2.45 us/iter -> 245 ms for 100k. CheriBSD adds the trap to each
     syscall and an address-space switch to each context switch:
     4*800 + 2*(2600+1100) = ~10.6 kcyc = 4.2 us/iter -> ~420 ms.

   - hello-world fork (Fig. 8): uFork = syscall + fork_fixed +
     thread_create + ~30 PTE copies + 2 proactive page copies+scans
     = ~135 kcyc = 54 us. CheriBSD = syscall + fork_fixed (vmspace/proc
     duplication is an order of magnitude heavier) + ~70 PTE copies
     = ~492 kcyc = 197 us. Nephele = domain_create + image copy = 10.7 ms.

   - pte_copy: uFork copies a flat range of entries within one address
     space (bulk memcpy-like, ~20 cyc/entry); CheriBSD duplicates vm_map
     entries + pmap with locking (~150 cyc/entry). This makes Redis fork
     latency scale as in Fig. 4: 26k mapped pages -> ~260 us vs ~1.7 ms.

   - Full synchronous copy (Fig. 4): page_alloc + page_copy + 256 granule
     scans + relocations = ~1.55 kcyc per 4 KiB page; 36864 pages (144 MB)
     = ~58 Mcyc = 23 ms.

   - soft_fault: after a CheriBSD fork the child pmap is empty; every first
     touch of a resident page takes a soft fault. This is the main reason
     the monolithic child is slower to walk a large database (Fig. 3). *)

let ufork =
  {
    label = "uFork (Unikraft+CHERI, bhyve)";
    syscall = 200L; (* sealed-capability entry, no trap *)
    context_switch = 2600L;
    address_space_switch = 0L; (* single address space *)
    page_fault = 400L; (* same-EL, exception-light handling *)
    soft_fault = 0L; (* PTEs are copied eagerly at fork *)
    fork_fixed = 100_000L;
    thread_create = 30_000L;
    exit_fixed = 4_000L;
    pte_copy = 18L;
    tlb_ipi = 1_500L;
    pte_protect = 12L;
    page_alloc = 150L;
    page_copy = 1_100L;
    granule_scan = 1L;
    cap_relocate = 40L;
    domain_create = 0L;
    copy_per_byte = 1.0;
    toctou_per_byte = 0.25;
    file_op = 6_000L;
    pipe_op = 150L;
  }

let cheribsd =
  {
    label = "CheriBSD 23.11 (pure-cap, bare metal)";
    syscall = 750L; (* trap entry/exit + syscall dispatch *)
    context_switch = 2600L;
    address_space_switch = 900L; (* ttbr switch + TLB maintenance *)
    page_fault = 1_000L;
    soft_fault = 1_000L;
    fork_fixed = 440_000L; (* proc + vmspace + fd + sigacts duplication *)
    thread_create = 35_000L;
    exit_fixed = 12_000L;
    pte_copy = 150L;
    tlb_ipi = 2_000L;
    pte_protect = 90L;
    page_alloc = 150L;
    page_copy = 1_100L;
    granule_scan = 1L; (* tag sweep during page copy (revocation-style) *)
    cap_relocate = 0L; (* no relocation: child VA layout is identical *)
    domain_create = 0L;
    copy_per_byte = 1.55; (* double copy via the page cache *)
    toctou_per_byte = 0.25;
    file_op = 9_000L;
    pipe_op = 220L;
  }

let nephele =
  {
    label = "Nephele (Xen VM cloning, x86-64)";
    syscall = 200L;
    context_switch = 2600L;
    address_space_switch = 0L;
    page_fault = 400L;
    soft_fault = 0L;
    fork_fixed = 120_000L;
    thread_create = 30_000L;
    exit_fixed = 50_000L;
    pte_copy = 60L; (* grant-table remapping via the hypervisor *)
    tlb_ipi = 1_800L;
    pte_protect = 60L;
    page_alloc = 150L;
    page_copy = 1_100L;
    granule_scan = 0L;
    cap_relocate = 0L;
    domain_create = 26_250_000L; (* new Xen domain: ~10.5 ms *)
    copy_per_byte = 0.8;
    toctou_per_byte = 0.0;
    file_op = 6_000L;
    pipe_op = 150L;
  }

let linux_ref =
  {
    label = "Linux aarch64 (reference)";
    syscall = 600L;
    context_switch = 2000L;
    address_space_switch = 800L;
    page_fault = 800L;
    soft_fault = 800L;
    fork_fixed = 220_000L;
    thread_create = 25_000L;
    exit_fixed = 8_000L;
    pte_copy = 80L;
    tlb_ipi = 1_600L;
    pte_protect = 60L;
    page_alloc = 150L;
    page_copy = 1_100L;
    granule_scan = 0L;
    cap_relocate = 0L;
    domain_create = 0L;
    copy_per_byte = 1.0;
    toctou_per_byte = 0.0;
    file_op = 7_000L;
    pipe_op = 180L;
  }

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%s:@,\
     syscall=%Ld ctx=%Ld as_switch=%Ld fault=%Ld soft=%Ld@,\
     fork=%Ld thread=%Ld exit=%Ld@,\
     pte_copy=%Ld pte_prot=%Ld tlb_ipi=%Ld page_alloc=%Ld page_copy=%Ld@,\
     granule=%Ld reloc=%Ld domain=%Ld@,\
     copy/B=%.2f toctou/B=%.2f file_op=%Ld pipe_op=%Ld@]"
    t.label t.syscall t.context_switch t.address_space_switch t.page_fault
    t.soft_fault t.fork_fixed t.thread_create t.exit_fixed t.pte_copy
    t.pte_protect t.tlb_ipi t.page_alloc t.page_copy t.granule_scan
    t.cap_relocate
    t.domain_create t.copy_per_byte t.toctou_per_byte t.file_op t.pipe_op

let bytes_cost per_byte n = int_of_float ((per_byte *. float_of_int n) +. 0.5)
