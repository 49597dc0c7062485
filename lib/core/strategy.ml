type t = Full_copy | Coa | Copa

let to_string = function
  | Full_copy -> "full-copy"
  | Coa -> "CoA"
  | Copa -> "CoPA"

let all = [ Full_copy; Coa; Copa ]
