(* [len] elements starting at [head], wrapping at the end of [ring],
   whose size is zero or a power of two so wrapping is a mask. *)
type t = { mutable ring : int array; mutable head : int; mutable len : int }

let create () = { ring = [||]; head = 0; len = 0 }
let length q = q.len
let is_empty q = q.len = 0

let grow q =
  let size = Array.length q.ring in
  let ring = Array.make (Int.max 8 (2 * size)) 0 in
  for i = 0 to q.len - 1 do
    ring.(i) <- q.ring.((q.head + i) land (size - 1))
  done;
  q.ring <- ring;
  q.head <- 0

let push q x =
  if q.len = Array.length q.ring then grow q;
  q.ring.((q.head + q.len) land (Array.length q.ring - 1)) <- x;
  q.len <- q.len + 1

let peek q =
  if q.len = 0 then invalid_arg "Intq.peek: empty";
  q.ring.(q.head)

let pop q =
  if q.len = 0 then invalid_arg "Intq.pop: empty";
  let x = q.ring.(q.head) in
  q.head <- (q.head + 1) land (Array.length q.ring - 1);
  q.len <- q.len - 1;
  x
