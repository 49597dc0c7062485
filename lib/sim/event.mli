(** The typed mechanism-event taxonomy of the cost model.

    Every simulated cycle a kernel charges and every counter a benchmark
    reads corresponds to one constructor below. An event knows three
    things: its counter key ({!to_key} — the name under which the derived
    {!Meter} view accumulates it), how many units one emission represents
    ({!count} — pages for [Page_alloc], bytes for [Copy_bytes], 1 for
    everything else), and its cycle cost under a given {!Costs.t} preset
    ({!measure}). Emission happens through {!Trace.emit}, which charges,
    counts and (optionally) records the event atomically — there is no
    way to bump a counter without paying the cycles, or vice versa. *)

type t =
  (* Privilege and scheduling transitions. *)
  | Syscall of { name : string; trap : bool }
      (** Kernel entry. [trap = false] is the sealed-capability invocation
          (§4.4); [trap = true] the classic exception entry, floored at
          800 cycles. Counted under ["syscall.<name>"] plus the aggregate
          ["syscall"]. *)
  | Entry_validation of int
      (** Argument-validation work at syscall entry; payload is the cycle
          cost implied by the configured isolation level. *)
  | Toctou_setup
      (** Kernel-side shadow-copy setup of by-reference arguments on every
          entry when TOCTTOU protection is on (§4.4). *)
  | Copy_bytes of int  (** copyin/copyout of an [n]-byte syscall payload. *)
  | Toctou_bytes of int
      (** The TOCTTOU double copy of the same [n] bytes, on top of
          {!Copy_bytes}. *)
  | Context_switch
  | Address_space_switch
      (** Page-table switch + TLB flush; emitted only by multi-AS
          kernels. *)
  (* Faults. *)
  | Page_fault  (** Fault delivery + handler entry/exit (key ["fault"]). *)
  | Soft_fault
      (** Monolithic pmap miss on a resident page (first touch after
          fork). *)
  | Demand_zero  (** Demand-zero materialization in heap/metadata. *)
  | Cow_write_fault
  | Copa_write_fault
  | Copa_cap_load_fault
  | Coa_access_fault
      (** Fault classification sub-counters; zero cost — the cycles are on
          the enclosing {!Page_fault}. *)
  (* fork machinery. *)
  | Fork_fixed  (** Fixed fork bookkeeping (key ["fork"]). *)
  | Spawn  (** posix_spawn fixed cost: a quarter of {!Fork_fixed}. *)
  | Thread_create
  | Exit
  | Kill
  | Domain_create  (** Nephele VM-clone domain creation. *)
  (* Page tables and page movement. *)
  | Pte_copy of int
      (** [n] page-table entries installed/duplicated at fork or mapping
          time. Batched emission: one record for a whole range charges
          exactly [n] times the per-entry cost, so cycle totals and meter
          counts are independent of the batch split. *)
  | Pte_protect
  | Tlb_shootdown of int
      (** The flush/shootdown batch closing a sequence of PTE permission
          downgrades (fork's CoW/CoA/CoPA sharing loop): stale TLB entries
          on every core are invalidated before the downgraded mappings can
          be relied upon. The payload is the number of remote cores that
          must acknowledge the IPI (cores − 1; 0 on a single core), each
          charged {!Ufork_sim.Costs.t.tlb_ipi} cycles — the cross-core
          window that eventually caps fork scaling. Counts as one flush
          protocol step regardless; the linter checks its ordering. *)
  | Page_alloc of int  (** [n] fresh physical frames. *)
  | Page_copy_eager of int
      (** [n] eager 4 KiB copies at fork (proactive or full); batched like
          {!Pte_copy}. *)
  | Page_copy_child  (** Fault-driven copy into the child (CoA/CoPA). *)
  | Page_copy_cow  (** Parent-side CoW copy. *)
  | Claim_in_place
  | Cow_claim_in_place
      (** Refcount-1 frames claimed without a copy; zero cost. *)
  | Shm_share  (** Deliberately shared page mapped, not copied (§3.7). *)
  (* Capability relocation (§4.2). *)
  | Granule_scan of int  (** [n] 16-byte granules tag-inspected. *)
  | Cap_relocate of int  (** [n] tagged capabilities rebased. *)
  | Toctou_revalidate of int
      (** Post-copy revalidation of [n] duplicated PTEs against the copied
          fork arguments (§5.1); costs n/2 cycles. *)
  (* Allocator, files, pipes, segments. *)
  | Malloc
  | Free
  | File_op
  | Pipe_op
  | Shm_open
  | Map_library
  | Arena_pretouch of int
      (** [n] heap pages re-dirtied by a forked child's first allocation;
          zero direct cost (the write faults are charged separately). *)
  (* Application work. *)
  | Compute of int64  (** Pure CPU burn requested via [Api.compute]. *)

val id : t -> int [@@ufork.test_seam]
(** Dense stable constructor code in declaration order,
    [0 .. id_count - 1]. Injective across constructors ([Syscall] maps to
    one code regardless of name; the per-name counter split is a key
    concern, handled by {!Meter} interning) and append-only — tests pin
    the exact values, so renumbering is an accounting-format change. The
    flat accounting arrays in {!Trace} index by it. *)

val id_count : int
(** Number of constructor codes; [id e < id_count] for every [e]. *)

val to_key : t -> string
(** The counter key. Injective across constructors: no two constructors
    share a key (for [Syscall] the key is ["syscall." ^ name]; the
    aggregate ["syscall"] counter is maintained by {!Trace.emit} on top). *)

val count : t -> int
(** Units represented by one emission: the payload for [Page_alloc],
    [Copy_bytes], [Toctou_bytes], [Granule_scan], [Cap_relocate],
    [Toctou_revalidate], [Arena_pretouch], [Pte_copy] and
    [Page_copy_eager]; 1 otherwise. *)

val linear_unit : costs:Costs.t -> t -> int
(** [u >= 0] when an emission's cycles are exactly [count * u] with [u]
    derivable from the preset (and, for [Syscall]/[Entry_validation],
    the payload) — the per-key invariant {!Trace.audit} re-checks. [-1]
    (no unit) for byte-scaled costs (per-call rounding),
    [Tlb_shootdown], [Toctou_revalidate] and [Compute]. Preset costs are
    non-negative, so the sentinel never collides with a unit. *)

(** {1 Charging in one dispatch} *)

type charge = {
  mutable id : int;  (** {!id} *)
  mutable units : int;  (** {!count} *)
  mutable unit : int;  (** {!linear_unit} *)
}
(** What {!measure} learns about one emission besides its cycles. *)

val charge : unit -> charge
(** A scratch record for {!measure}: the caller owns one and reuses it
    for every emission. *)

val measure : costs:Costs.t -> charge -> t -> int
(** The cycles one emission charges under the preset, in one match on
    the event that also stores its {!id}, {!count} and {!linear_unit}
    in the scratch record — {!Trace.emit}'s one call per event. A
    native int: it is converted to [int64] only at the audit and engine
    edges. *)

val fault_key : string
(** [to_key Page_fault] — for callers that read the fault counter back
    from the {!Meter} view instead of hard-coding ["fault"]. *)

val pte_copy_key : string
(** [to_key (Pte_copy 1)], likewise. *)

val json_escape : string -> string
(** Minimal JSON string escaping (quotes, backslash, control chars). *)

val to_json : t -> string
(** One-line JSON object [{"key": ..., "n": ...}]. *)

val samples : t list [@@ufork.test_seam]
(** One representative per constructor, for exhaustiveness-style tests. *)
