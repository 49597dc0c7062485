module Prng = Ufork_util.Prng

let key i = Printf.sprintf "key:%08d" i

(* Overwrite [out] with the payload of [index]. *)
let fill out ~seed ~index =
  let len = Bytes.length out in
  let g = Prng.create ~seed:(Int64.add seed (Int64.of_int (index * 2654435761))) in
  Bytes.blit (Prng.bytes g 64) 0 out 0 (min 64 len);
  (* The filled prefix is whole 64-byte tiles, so copying it onto its own
     end continues the tiling: the fill doubles each step. *)
  let filled = ref (min 64 len) in
  while !filled < len do
    let n = min !filled (len - !filled) in
    Bytes.blit out 0 out !filled n;
    filled := !filled + n
  done

let value ~seed ~index ~len =
  let out = Bytes.create len in
  fill out ~seed ~index;
  out

let populate store ~entries ~value_len ~seed =
  (* [Kvstore.set] copies the value into the store, so one buffer serves
     every entry. *)
  let buf = Bytes.create value_len in
  for i = 0 to entries - 1 do
    fill buf ~seed ~index:i;
    Ufork_apps.Kvstore.set store ~key:(key i) ~value:buf
  done

(* The index [k] was generated from, if it is exactly [key i]. *)
let index_of_key k =
  if String.length k < 4 then None
  else
    match int_of_string_opt (String.sub k 4 (String.length k - 4)) with
    | Some i when i >= 0 && key i = k -> Some i
    | Some _ | None -> None

(* [v] equals [s.[off]] .. [s.[off + length v - 1]], eight bytes a step. *)
let equal_at v s off =
  let n = Bytes.length v in
  let rec go i =
    if i + 8 <= n then
      (Bytes.get_int64_le v i : int64) = String.get_int64_le s (off + i)
      && go (i + 8)
    else i = n || (Bytes.get v i = s.[off + i] && go (i + 1))
  in
  go 0

let dump_matches ~entries ~value_len ~seed dump =
  let seen = Array.make entries false in
  let expected = Bytes.create value_len in
  let check n ~key ~off ~len =
    match index_of_key key with
    | Some i when i < entries && (not seen.(i)) && len = value_len ->
        fill expected ~seed ~index:i;
        if not (equal_at expected dump off) then raise Exit;
        seen.(i) <- true;
        n + 1
    | Some _ | None -> raise Exit
  in
  match Ufork_apps.Rdb.fold dump ~init:0 check with
  | n -> n = entries
  | exception (Exit | Failure _) -> false

let db_sizes_of_paper =
  [
    ("100 KB", 1, 100 * 1024);
    ("1 MB", 10, 100 * 1024);
    ("10 MB", 100, 100 * 1024);
    ("100 MB", 1000, 100 * 1024);
  ]

let db_sizes_extended = db_sizes_of_paper @ [ ("1 GB", 10_000, 100 * 1024) ]
