(* One repetition's outcome as a single JSON line, read by run.py. *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* All digits, so host times are never rounded into equality; a value
   that is not a number is reported as null and fails the run. *)
let json_float f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let metrics l =
  "{"
  ^ String.concat ","
      (List.map
         (fun (name, v, unit_) ->
           Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_string name)
             (json_float v) (json_string unit_))
         l)
  ^ "}"

let of_outcome (o : Workloads.outcome) =
  Printf.sprintf
    "{\"workload\":%s,\"host_s\":%s,\"setup_s\":%s,\"peak_rss_mb\":%s,\"attempted\":%d,\"failed\":%d,\"errors\":[%s],\"e2e\":%s,\"extra\":%s,\"layers\":%s}"
    (json_string o.workload) (json_float o.host_s) (json_float o.setup_s)
    (json_float o.peak_rss_mb) o.attempted o.failed
    (String.concat "," (List.map json_string o.errors))
    (metrics o.e2e) (metrics o.extra) (metrics o.layers)

let of_crash ~workload msg =
  Printf.sprintf
    "{\"workload\":%s,\"host_s\":null,\"setup_s\":null,\"peak_rss_mb\":null,\"attempted\":0,\"failed\":0,\"errors\":[%s],\"e2e\":{},\"extra\":{},\"layers\":{}}"
    (json_string workload) (json_string msg)
