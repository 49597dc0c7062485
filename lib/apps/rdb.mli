(** RDB-style snapshot serialization for {!Kvstore} — the BGSAVE workload
    of Fig. 3/4/5.

    [bgsave] reproduces Redis's background save: fork, let the {e child}
    serialize the (copy-on-write-frozen) store to a temp file on the
    ram-disk, rename it into place, exit; the parent keeps serving and
    reaps the child. [save_to] is the serialization itself, also usable
    in-process (Redis's synchronous SAVE). *)

val magic : string
(** File header magic ("USDB0001"). *)

val save_to : Ufork_sas.Api.t -> Kvstore.t -> path:string -> int
(** Serialize to a temp file, rename over [path]; returns bytes written.
    Charges the per-byte serialization work and the write syscalls.

    The file is the magic, then per entry an 8-byte header (key length,
    value length), the key and the value, then a 12-byte footer (end
    marker, entry count, {!checksum_add} of everything after the magic),
    all integers little-endian 32-bit. Each header, key, value and the
    footer is charged its own serialization [compute]; output goes to
    [write] in 64 KiB chunks, only the last one shorter. *)

val checksum_add : int -> string -> int -> int -> int
(** [checksum_add acc s off len] adds the bytes [s.[off]] ..
    [s.[off + len - 1]] to [acc], modulo 2{^32}: the dump checksum. *)

type bgsave_result = {
  fork_latency_cycles : int64;  (** Time the fork call took in the parent. *)
  total_cycles : int64;
      (** Trigger-to-completion time of the whole background save (what
          Fig. 3 reports). *)
  child_pid : int;
}

val bgsave : Ufork_sas.Api.t -> Kvstore.t -> path:string -> bgsave_result
(** Fork a snapshot child, wait for it, return the timings. The parent is
    free to mutate the store while the child dumps: the child sees the
    fork-instant state. *)

val fold :
  string -> init:'a -> ('a -> key:string -> off:int -> len:int -> 'a) -> 'a
(** [fold dump ~init f] parses a dump in one pass (host-side), calling [f]
    on each entry in file order with its key and the position of its value
    in [dump] ([dump.[off]] .. [dump.[off + len - 1]]), which is not
    copied. Raises [Failure] on a bad magic, a truncated file, a wrong
    entry count or a bad checksum; the count and checksum are checked
    after the last entry, so a result is trustworthy only once [fold]
    returns. *)

val load_count : string -> int
(** Parse a dump (host-side verification helper): returns the number of
    entries; raises [Failure] on a corrupt file or bad checksum. *)

val verify : string -> (string * bytes) list
(** Parse a dump into its entries, in file order (host-side; raises
    [Failure] on corruption). *)
