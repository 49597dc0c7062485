type t = { mutable state : int64 }

let create ~seed = { state = seed }
let copy t = { state = t.state }

(* splitmix64: fast, full-period on the 64-bit state, and trivially
   reproducible across platforms. *)
let next64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound <= 0";
  let v = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  v mod bound

let int_in t ~lo ~hi =
  if hi < lo then invalid_arg "Prng.int_in: hi < lo";
  lo + int t (hi - lo + 1)

let bool t = Int64.logand (next64 t) 1L = 1L

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i (Char.chr (int t 256))
  done;
  b
