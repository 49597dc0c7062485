let direct x = x
let aliased x = x + 1
let local_alias x = x + 2
let opened x = x + 3
let from_example x = x + 4
let seam x = x + 5
