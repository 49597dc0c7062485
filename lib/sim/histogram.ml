(* Fixed log2 bucket layout: bucket 0 = {0}, bucket i>=1 = [2^(i-1),
   2^i - 1]. 65 buckets cover every non-negative int64, so two
   histograms always share a layout and merge is exact. *)

let buckets = 65

(* [sum], [min] and [max] are int64 cells in one [Bytes.t] rather than
   mutable [int64] fields: storing to a boxed field allocates a fresh box
   on every update, while the bytes accessors compile to unboxed loads
   and stores. The span hot path records one value per closed span. *)
type t = { counts : int array; mutable n : int; cells : Bytes.t }

let sum_at = 0
let min_at = 8
let max_at = 16
let get t at = Bytes.get_int64_ne t.cells at
let set t at v = Bytes.set_int64_ne t.cells at v

let create () =
  { counts = Array.make buckets 0; n = 0; cells = Bytes.make 24 '\000' }

let index_of v =
  if Int64.compare v 0L < 0 then
    invalid_arg "Histogram: negative value"
  else
    let rec bits acc v =
      if v = 0L then acc else bits (acc + 1) (Int64.shift_right_logical v 1)
    in
    bits 0 v

let bounds_of_index i =
  if i = 0 then (0L, 0L)
  else
    let lo = Int64.shift_left 1L (i - 1) in
    let hi =
      if i >= 64 then Int64.max_int else Int64.sub (Int64.shift_left 1L i) 1L
    in
    (lo, hi)

let bucket_bounds v = bounds_of_index (index_of v)

(* The shared tail of both entry points, once the bucket is known;
   inlined, so [record_int]'s value is never boxed for the call. *)
let add t i (v : int64) =
  t.counts.(i) <- t.counts.(i) + 1;
  set t sum_at (Int64.add (get t sum_at) v);
  if t.n = 0 then begin
    set t min_at v;
    set t max_at v
  end
  else begin
    if v < get t min_at then set t min_at v;
    if v > get t max_at then set t max_at v
  end;
  t.n <- t.n + 1
[@@inline]

let record t v = add t (index_of v) v

(* Same layout as {!record} but the bucket search runs on the native
   int, so the per-record cost is branch-and-shift with no boxing. *)
let record_int t v =
  if v < 0 then invalid_arg "Histogram: negative value";
  (* The bucket is the bit length of [v], found by halving the range
     six times. *)
  let n = ref 0 and v' = ref v in
  if !v' lsr 32 <> 0 then begin n := 32; v' := !v' lsr 32 end;
  if !v' lsr 16 <> 0 then begin n := !n + 16; v' := !v' lsr 16 end;
  if !v' lsr 8 <> 0 then begin n := !n + 8; v' := !v' lsr 8 end;
  if !v' lsr 4 <> 0 then begin n := !n + 4; v' := !v' lsr 4 end;
  if !v' lsr 2 <> 0 then begin n := !n + 2; v' := !v' lsr 2 end;
  if !v' lsr 1 <> 0 then begin n := !n + 1; v' := !v' lsr 1 end;
  add t (!n + !v') (Int64.of_int v)

let count t = t.n
let is_empty t = t.n = 0
let sum t = get t sum_at
let min_value t = if t.n = 0 then 0L else get t min_at
let max_value t = if t.n = 0 then 0L else get t max_at

let quantile t p =
  if p < 0. || p > 1. then invalid_arg "Histogram.quantile: p outside [0,1]";
  if t.n = 0 then 0L
  else begin
    let rank = max 1 (min t.n (int_of_float (ceil (p *. float_of_int t.n)))) in
    let cum = ref 0 and idx = ref (-1) in
    (try
       for i = 0 to buckets - 1 do
         cum := !cum + t.counts.(i);
         if !cum >= rank then begin
           idx := i;
           raise Exit
         end
       done
     with Exit -> ());
    let _, hi = bounds_of_index !idx in
    let vmax = max_value t and vmin = min_value t in
    let v = if Int64.compare hi vmax > 0 then vmax else hi in
    if Int64.compare v vmin < 0 then vmin else v
  end

let merge a b =
  let t = create () in
  for i = 0 to buckets - 1 do
    t.counts.(i) <- a.counts.(i) + b.counts.(i)
  done;
  t.n <- a.n + b.n;
  set t sum_at (Int64.add (sum a) (sum b));
  (match (a.n, b.n) with
  | 0, 0 -> ()
  | _, 0 ->
      set t min_at (min_value a);
      set t max_at (max_value a)
  | 0, _ ->
      set t min_at (min_value b);
      set t max_at (max_value b)
  | _ ->
      set t min_at (Int64.min (min_value a) (min_value b));
      set t max_at (Int64.max (max_value a) (max_value b)));
  t

let to_buckets t =
  let acc = ref [] in
  for i = buckets - 1 downto 0 do
    if t.counts.(i) > 0 then begin
      let lo, hi = bounds_of_index i in
      acc := (lo, hi, t.counts.(i)) :: !acc
    end
  done;
  !acc
