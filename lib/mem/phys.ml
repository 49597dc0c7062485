module Hb = Ufork_util.Hb

type frame = {
  fid : int;
  mutable refcount : int;
  page : Page.t;
  mutable census : int;
}

(* Frame state (refcount, pool membership) is shared between every
   thread that forks, faults or exits: publish each mutation so the
   race detector can check that some happens-before edge orders it. *)
let note fid site =
  if Hb.on () then
    Hb.emit (Hb.Write { tid = Hb.tid (); loc = Hb.Frame fid; site })

(* The shared global pool behind the per-core freelists is itself shared
   state: every batched refill/drain mutates it, so each transfer is
   published as a plain write to the [Pool] location. Unlike frame
   refcounts (modelled as atomic RMWs), pool transfers are list splices
   that genuinely need a lock — the race detector must see an ordering
   edge between any two. *)
let note_pool site =
  if Hb.on () then
    Hb.emit (Hb.Write { tid = Hb.tid (); loc = Hb.Pool; site })

(* Freed frames return to the releasing core's freelist and are handed
   back out batch-at-a-time: most alloc/release pairs never touch the
   shared pool, which is what lets the sharded kernel keep its
   frame-pool lock off the fork fast path. *)
let refill_batch = 32
let drain_threshold = 2 * refill_batch

type t = {
  limit_frames : int option;
  mutable in_use : int;
  mutable peak : int;
  mutable total : int;
  mutable next_id : int;
  (* Every frame ever carved, frame [fid] at index [fid - 1]: ids are
     dense, so the registry is iterated in id order. It is chunked so
     each piece stays in the minor heap: a frame stored into a
     major-heap array is promoted at the next minor collection even when
     its machine is already garbage. *)
  mutable registry : frame array array;
  local_free : frame list array; (* per-core freelist caches, LIFO *)
  local_len : int array;
  mutable global_free : frame list; (* the shared pool of free frames *)
  mutable refills : int;
  mutable drains : int;
  (* Serializes refill/drain against the shared pool. lib/mem cannot
     depend on lib/sim, so the kernel injects its frame-pool lock here;
     the default runs the transfer unguarded (single-threaded unit
     tests, chaos lockless mode). *)
  mutable pool_guard : (unit -> unit) -> unit;
  mutable guard_empty : bool; (* run the guard for a refill of nothing *)
  (* The calling thread's core, or negative outside any thread. The
     kernel passes its engine's identity field; without one every caller
     funnels through slot 0. *)
  core : unit -> int;
  (* Spare page storage shared by every frame carved here. *)
  storage : Page.pool;
}

exception Out_of_memory

(* Fills a registry chunk's unused tail; one shared long-lived value. *)
let vacant = { fid = 0; refcount = 0; page = Page.create (); census = 0 }

(* Spare buffers and tag tables kept per machine: two per core, the
   pages a fork-and-exit cycle on each core frees and writes again
   (fork-storm's child dirties two), so steady churn recycles storage
   while a machine pins at most 2 x cores x 4 KiB of spare bytes. *)
let spare_per_core = 2

(* Registry chunks of 128 frames (129 words: minor-heap sized). *)
let chunk_bits = 7
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

let create ?limit_frames ?(cores = 1) ?(core = fun () -> -1) () =
  let cores = max 1 cores in
  {
    limit_frames;
    in_use = 0;
    peak = 0;
    total = 0;
    next_id = 0;
    registry = [||];
    local_free = Array.make cores [];
    local_len = Array.make cores 0;
    global_free = [];
    refills = 0;
    drains = 0;
    pool_guard = (fun f -> f ());
    guard_empty = true;
    core;
    storage = Page.pool ~bound:(spare_per_core * cores);
  }

let set_pool_guard t ?(guard_empty = true) g =
  t.pool_guard <- g;
  t.guard_empty <- guard_empty
let storage_pool t = t.storage

(* The core whose freelist serves the calling thread; outside any
   simulated thread (boot, unit tests) everything funnels through slot
   0. A single-core pool never asks. *)
let core_slot t =
  let n = Array.length t.local_free in
  if n = 1 then 0
  else
    let c = t.core () in
    if c < 0 then 0 else c mod n

let refills t = t.refills
let drains t = t.drains

(* Will the next [n]-frame allocation on this thread's core touch the
   shared pool (freelist refill or fresh carve)? The sharded kernel
   takes its frame-pool lock exactly then. *)
let needs_global t n = t.local_len.(core_slot t) < n

let refill t slot =
  let rec take acc len = function
    | f :: rest when len < refill_batch -> take (f :: acc) (len + 1) rest
    | rest ->
        t.global_free <- rest;
        (acc, len)
  in
  t.pool_guard (fun () ->
      match t.global_free with
      | [] -> ()
      | _ ->
          note_pool "Phys.refill";
          let taken, len = take t.local_free.(slot) t.local_len.(slot)
                             t.global_free in
          t.local_free.(slot) <- taken;
          t.local_len.(slot) <- len;
          t.refills <- t.refills + 1)

(* A frame never handed out before, registered under the next id. *)
let carve t =
  t.next_id <- t.next_id + 1;
  let f =
    {
      fid = t.next_id;
      refcount = 1;
      page = Page.create_in t.storage;
      census = 0;
    }
  in
  let i = f.fid - 1 in
  let c = i lsr chunk_bits in
  let n = Array.length t.registry in
  if c >= n then begin
    let grown = Array.make (max 4 (2 * n)) [||] in
    Array.blit t.registry 0 grown 0 n;
    t.registry <- grown
  end;
  if i land chunk_mask = 0 then t.registry.(c) <- Array.make chunk_size vacant;
  t.registry.(c).(i land chunk_mask) <- f;
  f

let alloc t =
  (match t.limit_frames with
  | Some l when t.in_use >= l -> raise Out_of_memory
  | Some _ | None -> ());
  t.in_use <- t.in_use + 1;
  t.total <- t.total + 1;
  if t.in_use > t.peak then t.peak <- t.in_use;
  let slot = core_slot t in
  if t.local_len.(slot) = 0 && (t.guard_empty || t.global_free != []) then
    refill t slot;
  let f =
    match t.local_free.(slot) with
    | f :: rest ->
        (* Recycle: a reused frame must be indistinguishable from a
           fresh one (zero bytes, no tags). *)
        t.local_free.(slot) <- rest;
        t.local_len.(slot) <- t.local_len.(slot) - 1;
        Page.clear f.page;
        f.refcount <- 1;
        f
    | [] -> carve t
  in
  note f.fid "Phys.alloc";
  f

let retain _t f =
  if f.refcount <= 0 then invalid_arg "Phys.retain: frame is free";
  note f.fid "Phys.retain";
  f.refcount <- f.refcount + 1

let release t f =
  if f.refcount <= 0 then invalid_arg "Phys.release: frame is free";
  note f.fid "Phys.release";
  f.refcount <- f.refcount - 1;
  if f.refcount = 0 then begin
    t.in_use <- t.in_use - 1;
    (* Reclamation hygiene: a frame returning to the pool must not carry
       valid capabilities — the tag bits are invalidated with the frame
       (what CHERI hardware guarantees on reuse, and what the state
       sanitizer's free-frame invariant checks). The bytes go with them,
       so a free frame holds no page storage: both go to the machine's
       spare pool, for the next first write or page copy. *)
    Page.clear f.page;
    let slot = core_slot t in
    t.local_free.(slot) <- f :: t.local_free.(slot);
    t.local_len.(slot) <- t.local_len.(slot) + 1;
    if t.local_len.(slot) > drain_threshold then
      t.pool_guard (fun () ->
          (* Batched drain back to the shared pool so one core's churn
             keeps feeding the others. *)
          note_pool "Phys.drain";
          let rec drop acc len lst =
            if len <= refill_batch then (acc, len, lst)
            else
              match lst with
              | f :: rest -> drop (f :: acc) (len - 1) rest
              | [] -> (acc, len, [])
          in
          let drained, len, kept =
            drop t.global_free t.local_len.(slot) t.local_free.(slot)
          in
          t.global_free <- drained;
          t.local_free.(slot) <- kept;
          t.local_len.(slot) <- len;
          t.drains <- t.drains + 1)
  end

let refcount f = f.refcount
let page f = f.page
let id f = f.fid
let frames_in_use t = t.in_use
let peak_frames t = t.peak
let total_allocated t = t.total

let iter_frames t f =
  let registry = t.registry and n = t.next_id in
  for i = 0 to n - 1 do
    f registry.(i lsr chunk_bits).(i land chunk_mask)
  done

let fold_frames t ~init ~f =
  let acc = ref init in
  iter_frames t (fun frame -> acc := f !acc frame);
  !acc

let census f = f.census
let set_census f n = f.census <- n
let chaos_skew_in_use t delta = t.in_use <- t.in_use + delta
