(** The portable OS interface applications are written against.

    Apps (the Redis-like store, the Nginx-like server, the FaaS runtime,
    the Unixbench ports) call only these operations, so the same
    application code runs unmodified on μFork, on the monolithic baseline
    and on the VM-clone baseline — mirroring the paper's transparency goal
    (R2). Each OS flavour builds one [t] per process context.

    {b Fork semantics under simulation.} POSIX fork returns twice; OCaml
    closures cannot be duplicated, so [fork] takes the child's continuation
    explicitly. The memory semantics are faithful — the child gets a
    (lazily) copied, relocated view of the parent's simulated memory — and
    the child's [reloc] translates any capability values the closure
    captured from the parent's scope, modelling μFork's relocation of
    capability registers at fork (§3.5 step 2). On the baselines the
    child's layout equals the parent's and [reloc] is the identity. *)

type cap = Ufork_cheri.Capability.t

exception Sys_error of string
(** Syscall-level failure (bad fd, missing file, broken pipe, ENOMEM...). *)

type open_mode = [ `Read | `Write | `Create | `Append ]

type t = {
  (* Process management. *)
  getpid : unit -> int;
  fork : (t -> unit) -> int;
      (** Create a child μprocess running the given continuation; returns
          the child's pid to the parent. *)
  exit : int -> unit;
      (** Terminate the calling process with a status; does not return
          (raises the internal exit signal caught by the kernel). *)
  wait : unit -> int * int;
      (** Block until a child exits; returns (pid, status). Raises
          [Sys_error] when there are no children. *)
  spawn : (t -> unit) -> int;
      (** posix_spawn-style process creation (the fork+exec replacement of
          §2.3): a fresh process from the same program image, inheriting
          file descriptors but no memory state. *)
  kill : int -> unit;
      (** Mark a process for termination (SIGKILL); delivered at its next
          kernel entry or blocking resume. Raises [Sys_error] for a bad
          pid. *)
  reloc : cap -> cap;
      (** Translate a capability inherited from the parent at fork time
          into this process's area (identity except in a μFork child). *)
  (* Memory. *)
  malloc : int -> cap;
      (** Allocate from the process heap; the capability is bounded to the
          block (and to the μprocess area). Raises [Sys_error] on
          exhaustion. *)
  free : cap -> unit;
  read_bytes : cap -> off:int -> len:int -> bytes;
      (** Data load at [cursor cap + off]. *)
  write_bytes : cap -> off:int -> bytes -> unit;
  read_u64 : cap -> off:int -> int64;
  write_u64 : cap -> off:int -> int64 -> unit;
  load_cap : cap -> off:int -> cap;
      (** Capability load (16-byte aligned) — the access CoPA may fault
          on. *)
  store_cap : cap -> off:int -> cap -> unit;
  got_set : int -> cap -> unit;
      (** Store a capability in a GOT slot (how apps keep globals that
          survive fork: the GOT is proactively copied and relocated). *)
  got_get : int -> cap;
  (* CPU. *)
  compute : int64 -> unit;  (** Consume CPU cycles (application work). *)
  now : unit -> int64;  (** Simulated clock (cycles). *)
  (* Files and pipes. *)
  open_ : string -> open_mode -> int;
  close : int -> unit;
  read : int -> int -> bytes;
      (** [read fd n]: up to [n] bytes; empty result means EOF. Blocks on
          an empty pipe. *)
  pread : int -> off:int -> int -> bytes;
      (** Positional read on a file descriptor (files only); the file
          offset that [read] uses does not move. *)
  write : int -> bytes -> int;
      (** [write fd b]: the kernel copies [b] before returning, so the
          caller may reuse the buffer at once. *)
  rename : src:string -> dst:string -> unit;
  unlink : string -> unit;
  pipe : unit -> int * int;  (** (read end, write end). *)
  shm_open : string -> int -> cap;
      (** Find-or-create a named shared-memory segment of the given size
          and map it (§3.7): the returned capability window is backed by
          the same frames in every process that opens the name, and fork
          keeps it shared. *)
  map_library : string -> int -> cap;
      (** Map a named shared library (§3.7): like [shm_open] but read-only
          and executable, "creating capabilities with the proper
          permissions". Every process mapping the same name shares the
          frames, so library text costs physical memory once. *)
  (* Introspection used by benchmarks (not part of the POSIX surface). *)
  stats_private_bytes : unit -> int;
  stats_heap_used : unit -> int;
  yield : unit -> unit;
  sleep : int64 -> unit;
      (* Block for the given simulated time (network/device waits); the
         core is released while sleeping. *)
}

exception Exited of int
(** Internal control signal raised by [exit]; the kernel catches it at the
    top of the process thread. Applications must not intercept it. *)
