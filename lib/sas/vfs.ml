(* A file's bytes live in fixed-size blocks: block [i] holds
   [[i * block, (i + 1) * block)]. Slots past the last written block hold
   [Bytes.empty]; a block is allocated the first time a write reaches it.
   Writes never start past the end of a file (there is no seek), so every
   byte below [len] has been written. *)
let block = 64 * 1024

type node = { mutable blocks : Bytes.t array; mutable len : int }

type t = (string, node) Hashtbl.t

type file = { node : node; mutable cursor : int; mutable open_ : bool }

let create () = Hashtbl.create 16

let node_get t name =
  match Hashtbl.find_opt t name with
  | Some n -> n
  | None -> raise Not_found

let node_create t name =
  let n = { blocks = [||]; len = 0 } in
  Hashtbl.replace t name n;
  n

(* Visit [[pos, pos + n)] one block fragment at a time:
   [f blk boff k done_] covers [k] bytes at [boff] in block [blk], the
   fragment starting [done_] bytes into the range. *)
let walk pos n f =
  let pos = ref pos and done_ = ref 0 in
  while !done_ < n do
    let boff = !pos mod block in
    let k = Int.min (n - !done_) (block - boff) in
    f (!pos / block) boff k !done_;
    pos := !pos + k;
    done_ := !done_ + k
  done

let read_at node off n =
  let k = Int.max 0 (Int.min n (node.len - off)) in
  let out = Bytes.create k in
  walk off k (fun i boff k d -> Bytes.blit node.blocks.(i) boff out d k);
  out

let write_at node pos b =
  let n = Bytes.length b in
  let need = (pos + n + block - 1) / block in
  let have = Array.length node.blocks in
  if need > have then begin
    let a = Array.make (Int.max need (2 * have)) Bytes.empty in
    Array.blit node.blocks 0 a 0 have;
    node.blocks <- a
  end;
  walk pos n (fun i boff k d ->
      if Bytes.length node.blocks.(i) = 0 then
        node.blocks.(i) <- Bytes.create block;
      Bytes.blit b d node.blocks.(i) boff k);
  if pos + n > node.len then node.len <- pos + n

let open_ t name mode =
  match mode with
  | `Read -> { node = node_get t name; cursor = 0; open_ = true }
  | `Write -> { node = node_get t name; cursor = 0; open_ = true }
  | `Create ->
      let n = node_create t name in
      { node = n; cursor = 0; open_ = true }
  | `Append ->
      let n =
        match Hashtbl.find_opt t name with
        | Some n -> n
        | None -> node_create t name
      in
      { node = n; cursor = n.len; open_ = true }

let check f = if not f.open_ then invalid_arg "Vfs: file is closed"

let read f n =
  check f;
  let out = read_at f.node f.cursor n in
  f.cursor <- f.cursor + Bytes.length out;
  out

let pread f ~off n =
  check f;
  if off < 0 then invalid_arg "Vfs.pread";
  read_at f.node off n

let write f b =
  check f;
  write_at f.node f.cursor b;
  f.cursor <- f.cursor + Bytes.length b;
  Bytes.length b

let size_of f = f.node.len
let close f = f.open_ <- false

let exists t name = Hashtbl.mem t name
let size t name = (node_get t name).len

let contents t name =
  let n = node_get t name in
  Bytes.unsafe_to_string (read_at n 0 n.len)

let put t name s =
  (* [write_at] only reads its source. *)
  write_at (node_create t name) 0 (Bytes.unsafe_of_string s)

let rename t ~src ~dst =
  let n = node_get t src in
  Hashtbl.remove t src;
  Hashtbl.replace t dst n

let unlink t name =
  if not (Hashtbl.mem t name) then raise Not_found;
  Hashtbl.remove t name

let list t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t [] |> List.sort compare
