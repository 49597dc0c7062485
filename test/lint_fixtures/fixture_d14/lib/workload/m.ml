let used x = x + 1
let unused x = used x * 2
let probe x = unused x
let stale x = x - 1
