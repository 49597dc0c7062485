let clock_hz = 2.5e9

let cycles_of_s t = Int64.of_float (t *. clock_hz +. 0.5)

let us_of_cycles c = Int64.to_float c /. clock_hz *. 1e6
let ms_of_cycles c = Int64.to_float c /. clock_hz *. 1e3
let s_of_cycles c = Int64.to_float c /. clock_hz

let mb_of_bytes n = float_of_int n /. 1e6
