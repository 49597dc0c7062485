module Sync = Ufork_sim.Sync

exception Broken_pipe

type write_result = Wrote of int | Would_block
type read_result = Data of bytes | Eof | Empty

(* A byte ring: [len] buffered bytes start at [head] and wrap around the
   end of [ring]. The ring starts small — most simulated pipes carry a
   few words at a time (Context1's 4-byte tokens) — and doubles on
   demand up to [capacity]. *)
type t = {
  capacity : int;
  mutable ring : Bytes.t;
  mutable head : int;
  mutable len : int;
  readable : Sync.Cond.t;
  writable : Sync.Cond.t;
  mutable read_open : bool;
  mutable write_open : bool;
}

let initial_ring = 16

let create ?(capacity = 64 * 1024) () =
  if capacity <= 0 then invalid_arg "Pipe.create";
  {
    capacity;
    ring = Bytes.create (Int.min capacity initial_ring);
    head = 0;
    len = 0;
    readable = Sync.Cond.create ();
    writable = Sync.Cond.create ();
    read_open = true;
    write_open = true;
  }

let available t = t.len

(* The ring offset of position [i] counted from offset 0, for [i] less
   than twice the ring's size. *)
let wrap t i = if i >= Bytes.length t.ring then i - Bytes.length t.ring else i

(* Copy [k] buffered bytes starting at ring offset [from] into [dst] at
   [at], in at most two pieces. *)
let blit_out t ~from dst ~at k =
  let size = Bytes.length t.ring in
  let first = Int.min k (size - from) in
  Bytes.blit t.ring from dst at first;
  if k > first then Bytes.blit t.ring 0 dst (at + first) (k - first)

(* Make room for [need] buffered bytes, unwrapping the ring into the
   larger one. *)
let reserve t need =
  let size = Bytes.length t.ring in
  if need > size then begin
    let ring = Bytes.create (Int.min t.capacity (Int.max need (2 * size))) in
    blit_out t ~from:t.head ring ~at:0 t.len;
    t.ring <- ring;
    t.head <- 0
  end

let try_write t ?(off = 0) b =
  if off < 0 || off > Bytes.length b then invalid_arg "Pipe.try_write";
  if not t.read_open then raise Broken_pipe;
  let room = t.capacity - t.len in
  if room <= 0 then Would_block
  else begin
    let k = Int.min room (Bytes.length b - off) in
    reserve t (t.len + k);
    let tail = wrap t (t.head + t.len) in
    let first = Int.min k (Bytes.length t.ring - tail) in
    Bytes.blit b off t.ring tail first;
    if k > first then Bytes.blit b (off + first) t.ring 0 (k - first);
    t.len <- t.len + k;
    Sync.Cond.broadcast t.readable;
    Wrote k
  end

let try_read t n =
  if n < 0 then invalid_arg "Pipe.try_read";
  if t.len = 0 then if t.write_open then Empty else Eof
  else begin
    let k = Int.min n t.len in
    let out = Bytes.create k in
    blit_out t ~from:t.head out ~at:0 k;
    t.head <- wrap t (t.head + k);
    t.len <- t.len - k;
    Sync.Cond.broadcast t.writable;
    Data out
  end

let readable t = t.readable
let writable t = t.writable

let close_read t =
  t.read_open <- false;
  Sync.Cond.broadcast t.writable

let close_write t =
  t.write_open <- false;
  Sync.Cond.broadcast t.readable

let read_open t = t.read_open
let write_open t = t.write_open
