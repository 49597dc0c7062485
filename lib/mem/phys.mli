(** Physical memory: a pool of reference-counted frames.

    Frames are the unit of sharing between μprocesses (and between POSIX
    processes on the monolithic baseline): copy-on-write and μFork's
    CoA/CoPA all map several virtual pages to one frame and bump its
    refcount. Accounting distinguishes total frames in use and the
    high-water mark, which the memory-consumption figures report. *)

type t
type frame

exception Out_of_memory

val create :
  ?limit_frames:int -> ?cores:int -> ?core:(unit -> int) -> unit -> t
(** A fresh physical memory. [limit_frames] bounds the pool (default:
    unlimited); exceeding it raises {!Out_of_memory}. [cores] (default
    1) sizes the per-core freelists: freed frames return to the
    releasing core's cache and refill/drain against the shared pool in
    batches, so most alloc/release pairs never touch shared state.
    [core] tells the pool the calling thread's core (negative outside
    any simulated thread), which picks the freelist; the kernel passes
    its engine's [Engine.running_core], so no alloc or release performs
    an effect. The default answers negative: every caller uses the
    first freelist. A single-core pool never asks. *)

val set_pool_guard :
  t -> ?guard_empty:bool -> ((unit -> unit) -> unit) -> unit
(** Install the critical-section wrapper run around every batched
    refill/drain transfer against the shared global pool. lib/mem cannot
    depend on lib/sim, so the kernel injects its frame-pool lock here
    (e.g. [Rlock.with_lock pool_lock]); the default runs the transfer
    unguarded. Each guarded transfer additionally publishes a
    {!Ufork_util.Hb.Pool} write on the happens-before bus, so the race
    detector (R1) and lock-order checker (R2) cover the frame fast
    path. With [~guard_empty:false] (default [true]) an empty freelist
    whose refill would find the shared pool empty too skips the guard
    and carves at once: a refill of nothing then takes no lock. *)

val storage_pool : t -> Page.pool
(** The spare page storage every frame of this pool shares: a released
    frame's byte buffer and tag table go here (up to two per core) and
    the next first write or page copy takes them back. *)

val alloc : t -> frame
(** A zeroed frame with refcount 1 — recycled from the calling core's
    freelist when possible ({!Page.clear}ed, so indistinguishable from a
    fresh frame), otherwise carved fresh from the shared pool. *)

val needs_global : t -> int -> bool
(** [needs_global t n]: will allocating [n] frames on the calling
    thread's core touch the shared pool (freelist refill or fresh
    carve)? The sharded kernel takes its frame-pool lock exactly when
    this is true. *)

val local_free_frames : t -> int
(** Free frames cached on the calling core's freelist. *)

val refills : t -> int
(** Batched freelist refills from the shared pool so far. *)

val drains : t -> int
(** Batched freelist drains back to the shared pool so far. *)

val retain : t -> frame -> unit
(** Increment the refcount (a new mapping shares the frame). *)

val release : t -> frame -> unit
(** Decrement the refcount; the frame returns to the pool at zero, and
    its page is {!Page.clear}ed: the capability tags are wiped
    (reclamation hygiene — CHERI invalidates tags with the frame, so a
    later reuse can never yield a stale valid capability) and the page
    storage is released to {!storage_pool}. Raises [Invalid_argument]
    if already free. *)

val refcount : frame -> int
val page : frame -> Page.t
(** The frame's backing page. *)

val id : frame -> int
(** Stable identity, for tests and tracing. *)

val frames_in_use : t -> int
val peak_frames : t -> int
val total_allocated : t -> int
(** Cumulative number of [alloc] calls. *)

val reset_peak : t -> unit

(** {1 Frame registry}

    The pool remembers every frame it ever allocated, free ones included,
    so a state sanitizer can sweep physical memory exhaustively: check
    refcounts against the mappings that alias each frame, and check that
    free frames are unmapped and tag-free. *)

val iter_frames : t -> (frame -> unit) -> unit
(** Every frame ever allocated, free ones included, in allocation order. *)

val fold_frames : t -> init:'a -> f:('a -> frame -> 'a) -> 'a

(** {1 Census}

    One integer per frame for a whole-memory sweep to tally in: the state
    sanitizer counts each frame's mappings here, so its census needs no
    table keyed by frame id and allocates nothing per frame. Nothing
    else reads or writes it, and a sweep sets every frame's value before
    it reads any, so one sweep at a time per pool. *)

val census : frame -> int
val set_census : frame -> int -> unit

val chaos_skew_in_use : t -> int -> unit
(** Fault injection only: desynchronize the [frames_in_use] counter from
    the registry by [delta], to prove the sanitizer catches accounting
    corruption. Never call this outside a chaos test. *)
