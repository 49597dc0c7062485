(* Sparse vector clocks over thread ids. Components default to 0, so the
   empty clock is the bottom element and [join] never needs to know the
   thread population up front. *)

module M = Map.Make (Int)

type t = int M.t

let empty = M.empty
let get t tid = Option.value (M.find_opt tid t) ~default:0
let incr t tid = M.add tid (get t tid + 1) t

let join a b =
  M.union (fun _tid x y -> Some (max x y)) a b

let leq a b = M.for_all (fun tid x -> x <= get b tid) a

let equal a b = leq a b && leq b a

(* Strict partial order: a happened-before b. *)
let lt a b = leq a b && not (leq b a)
