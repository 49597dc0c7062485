module Api = Ufork_sas.Api

let magic = "USDB0001"

(* Fixed bookkeeping a BGSAVE performs besides moving bytes: dict-scan
   setup, status logging, temp-file naming. Identical on every OS (it is
   application compute). *)
let bgsave_fixed_compute = 500_000L

(* Serialization work per payload byte (format conversion + checksum). *)
let serialize_cost len = Int64.of_int (len + (len / 2) + (len / 20))

let chunk = 64 * 1024

let lanes = 0x00ff_00ff_00ff_00ff

let checksum_add acc s off len =
  (* Eight bytes per step: a word's even and odd bytes add into four
     16-bit lanes, at most 510 per lane per word. The top lane has only
     15 bits (an OCaml int has 63), so the lanes are folded after every
     run of 64 words (512 bytes), before any of them can carry. *)
  let stop = off + len in
  let sum = ref acc and i = ref off in
  while !i + 8 <= stop do
    let run_end = min stop (!i + 512) in
    let v = ref 0 in
    while !i + 8 <= run_end do
      let x = String.get_int64_le s !i in
      v :=
        !v
        + (Int64.to_int x land lanes)
        + (Int64.to_int (Int64.shift_right_logical x 8) land lanes);
      i := !i + 8
    done;
    let v = !v in
    sum :=
      !sum + (v land 0xffff)
      + ((v lsr 16) land 0xffff)
      + ((v lsr 32) land 0xffff)
      + (v lsr 48)
  done;
  while !i < stop do
    sum := !sum + Char.code s.[!i];
    incr i
  done;
  !sum land 0xffffffff

(* Little-endian 32-bit words. *)
let u32s vs =
  let b = Bytes.create (4 * List.length vs) in
  List.iteri (fun i v -> Bytes.set_int32_le b (4 * i) (Int32.of_int v)) vs;
  Bytes.unsafe_to_string b

let save_to (api : Api.t) store ~path =
  let tmp = path ^ ".tmp" in
  let fd = api.Api.open_ tmp `Create in
  let written = ref 0 in
  let checksum = ref 0 in
  (* Output is staged in one buffer that goes to [write] each time it
     holds a whole chunk; the kernel copies it before returning, so the
     buffer is reused. *)
  let stage = Bytes.create chunk in
  let staged = ref 0 in
  let stage_string s =
    let len = String.length s in
    let off = ref 0 in
    while !off < len do
      let n = min (len - !off) (chunk - !staged) in
      Bytes.blit_string s !off stage !staged n;
      staged := !staged + n;
      off := !off + n;
      if !staged = chunk then begin
        written := !written + api.Api.write fd stage;
        staged := 0
      end
    done
  in
  let emit s =
    checksum := checksum_add !checksum s 0 (String.length s);
    api.Api.compute (serialize_cost (String.length s));
    stage_string s
  in
  api.Api.compute bgsave_fixed_compute;
  (* The rio output buffer: real Redis allocates it per save; on CheriBSD
     this first allocation in the forked child is what re-dirties the
     allocator arena (Fig. 5). *)
  let iobuf = api.Api.malloc chunk in
  (* The magic is not checksummed. *)
  stage_string magic;
  let entries = ref 0 in
  Kvstore.iter store (fun ~key ~value_len:_ ~read_value ->
      incr entries;
      let value = read_value () in
      emit (u32s [ String.length key; Bytes.length value ]);
      emit key;
      (* [value] is this entry's own copy and is not mutated. *)
      emit (Bytes.unsafe_to_string value));
  emit (u32s [ 0xffffffff; !entries; !checksum ]);
  if !staged > 0 then
    written := !written + api.Api.write fd (Bytes.sub stage 0 !staged);
  api.Api.close fd;
  api.Api.rename ~src:tmp ~dst:path;
  api.Api.free iobuf;
  !written

type bgsave_result = {
  fork_latency_cycles : int64;
  total_cycles : int64;
  child_pid : int;
}

let bgsave (api : Api.t) _store ~path =
  let t0 = api.Api.now () in
  let child_pid =
    api.Api.fork (fun capi ->
        let store' = Kvstore.open_ capi in
        let n = save_to capi store' ~path in
        capi.Api.exit (if n > 0 then 0 else 1))
  in
  let fork_latency_cycles = Int64.sub (api.Api.now ()) t0 in
  let rec wait_for () =
    let pid, _status = api.Api.wait () in
    if pid = child_pid then () else wait_for ()
  in
  wait_for ();
  let total_cycles = Int64.sub (api.Api.now ()) t0 in
  { fork_latency_cycles; total_cycles; child_pid }

(* Host-side parsing for verification. *)

let get_u32 s off = Int32.to_int (String.get_int32_le s off) land 0xffffffff

let fold contents ~init f =
  let fail fmt = Printf.ksprintf failwith fmt in
  let len = String.length contents in
  if len < String.length magic + 12 then fail "rdb: truncated";
  if not (String.starts_with ~prefix:magic contents) then fail "rdb: bad magic";
  let rec loop pos sum count acc =
    if pos + 4 > len then fail "rdb: truncated at %d" pos;
    let klen = get_u32 contents pos in
    if klen = 0xffffffff then begin
      (* Footer: end marker, entry count, checksum of everything before. *)
      if pos + 12 > len then fail "rdb: truncated footer";
      if get_u32 contents (pos + 4) <> count then
        fail "rdb: entry count mismatch";
      if get_u32 contents (pos + 8) <> sum then fail "rdb: bad checksum";
      acc
    end
    else begin
      if pos + 8 > len then fail "rdb: truncated header";
      let vlen = get_u32 contents (pos + 4) in
      let off = pos + 8 + klen in
      if off + vlen > len then fail "rdb: truncated entry";
      (* Header, key and value are contiguous: one checksum pass. *)
      let sum = checksum_add sum contents pos (8 + klen + vlen) in
      let key = String.sub contents (pos + 8) klen in
      loop (off + vlen) sum (count + 1) (f acc ~key ~off ~len:vlen)
    end
  in
  loop (String.length magic) 0 0 init

let verify contents =
  fold contents ~init:[] (fun acc ~key ~off ~len ->
      (* The sub-range is copied out; [contents] itself is only read. *)
      (key, Bytes.sub (Bytes.unsafe_of_string contents) off len) :: acc)
  |> List.rev

let load_count contents =
  fold contents ~init:0 (fun n ~key:_ ~off:_ ~len:_ -> n + 1)
