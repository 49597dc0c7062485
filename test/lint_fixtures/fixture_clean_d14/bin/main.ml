module W = Ufork_workload.M

let a = Ufork_workload.M.direct 1
let b = W.aliased 1

let c =
  let module L = Ufork_workload.M in
  L.local_alias 1

open Ufork_workload.M

let () = print_int (a + b + c + opened 1)
