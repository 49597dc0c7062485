(* Happens-before instrumentation bus.

   The concurrency layer (engine, locks), the memory kit (frame pool,
   page tables) and the gauge surface publish ordering edges and
   shared-state mutations here; the dynamic race detector in
   lib/analysis subscribes for the duration of a checked run. With no
   subscriber the publishers pay one mutable-bool read and build no
   values, so production runs and the golden accounting are untouched.

   This module lives at the bottom of the dependency stack (lib/util)
   precisely so that both lib/sim and lib/mem can publish without a
   dependency cycle: the detector, not the publishers, decides what the
   events mean. *)

type loc =
  | Frame of int  (** a physical frame's refcount/pool state, by frame id *)
  | Pte of { table : int; vpn : int }  (** one page-table entry *)
  | Gauge of string  (** a derived-meter gauge key *)
  | Pool  (** the shared global free-frame pool behind the per-core freelists *)

type event =
  | Spawn of { parent : int; child : int }
      (** thread creation: everything the parent did so far
          happens-before everything the child does *)
  | Wake of { by : int; target : int }
      (** a suspended thread resumed by [by] (condition signal, waker
          handoff): the signaller's past happens-before the wakee's
          future *)
  | Acquire of { tid : int; lock : int }
  | Release of { tid : int; lock : int }
  | Write of { tid : int; loc : loc; site : string }
  | Block of { tid : int }
      (** the thread suspended (lock wait, condition wait, sleep); the
          causal analyzer uses this as the wait-segment start *)
  | Contend of { tid : int; lock : int; holder : int }
      (** [tid] found [lock] held by [holder] and is about to suspend;
          emitted just before the matching [Block] *)
  | Handoff of { from_ : int; to_ : int; lock : int }
      (** direct lock-ownership transfer on release: the very next
          [Wake] of [to_] delivers [lock]. A causal edge, not an
          ordering primitive — the detector's ordering comes from the
          Release/Acquire pair. *)
  | Steal of { tid : int; core : int }
      (** work stealing re-homed [tid] onto [core] (emitted by the
          dispatcher, outside any thread context) *)
  | Ipi of { by : int; remotes : int }
      (** a TLB-shootdown batch: [by] interrupts [remotes] remote cores *)
  | Span_open of { tid : int; name : string }
      (** a trace span opened on [tid] (span-boundary hook; [name] is
          the span's own segment, not the full stack path) *)
  | Span_close of { tid : int; name : string }
  | Cap_store of { tid : int; addr : int; prov : int }
      (** a tagged capability with provenance stamp [prov] was stored at
          [addr]; the capflow detector resolves which μprocess area the
          address belongs to and checks the R4 taint invariant *)
  | Cap_load of { tid : int; addr : int; prov : int }
      (** a tagged capability was loaded back out of memory *)

(* The engine installs the provider once at link time; outside any
   simulated thread (boot, direct poking from unit tests) it returns a
   negative tid, which subscribers treat as "not a concurrent context".
   [enabled] is the only state the hot paths touch when no detector is
   armed. *)

let enabled = ref false
let listener : (event -> unit) ref = ref ignore
let tid_provider : (unit -> int) ref = ref (fun () -> -1)

let set_tid_provider f = tid_provider := f
let tid () = !tid_provider ()
let on () = !enabled

(* Stable resource names for lock ids (the sharded kernel locks register
   here), so race reports and trace exports can name the resource a lock
   protects instead of printing a bare number. Process-global like the
   id counter itself: ids are never reused within a run. Ids that
   [Sync] hands out are dense and non-negative, so naming one is a
   store into an id-indexed array ([""] = unnamed) that doubles as ids
   outgrow it; the negative ids tests feed by hand keep a small table.

   Not synchronised: [Sync] registers names under its own registration
   mutex (machines boot from several domains at once,
   [Experiments.parmap]), and tests name ids from one domain. Readers
   are the detectors, which run single-domain. *)
let lock_names = ref (Array.make 64 "")
let negative_lock_names : (int, string) Hashtbl.t = Hashtbl.create 8

let set_lock_name id name =
  if id < 0 then Hashtbl.replace negative_lock_names id name
  else begin
    let names = !lock_names in
    let n = Array.length names in
    if id >= n then begin
      let grown = Array.make (max (2 * n) (id + 1)) "" in
      Array.blit names 0 grown 0 n;
      grown.(id) <- name;
      lock_names := grown
    end
    else names.(id) <- name
  end

let lock_name id =
  if id < 0 then Hashtbl.find_opt negative_lock_names id
  else
    let names = !lock_names in
    if id < Array.length names && String.length names.(id) > 0 then
      Some names.(id)
    else None

let pp_lock ppf id =
  match lock_name id with
  | Some name -> Format.fprintf ppf "%s (lock %d)" name id
  | None -> Format.fprintf ppf "lock %d" id

let subscribe f =
  listener := f;
  enabled := true

let unsubscribe () =
  enabled := false;
  listener := ignore

let emit ev = if !enabled then !listener ev

let pp_loc ppf = function
  | Frame fid -> Format.fprintf ppf "frame %d" fid
  | Pte { table; vpn } -> Format.fprintf ppf "pt%d vpn %#x" table vpn
  | Gauge key -> Format.fprintf ppf "gauge %s" key
  | Pool -> Format.fprintf ppf "pool"
