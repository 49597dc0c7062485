(* Unit + property tests for Ufork_util. *)

module Prng = Ufork_util.Prng
module Units = Ufork_util.Units
module Table = Ufork_util.Table

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) < eps

(* --- Prng --- *)

let test_prng_determinism () =
  let a = Prng.create ~seed:42L and b = Prng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next64 a) (Prng.next64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1L and b = Prng.create ~seed:2L in
  Alcotest.(check bool) "different streams" false
    (Prng.next64 a = Prng.next64 b)

let test_prng_copy () =
  let a = Prng.create ~seed:7L in
  ignore (Prng.next64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues" (Prng.next64 a) (Prng.next64 b)

let prop_prng_int_bound =
  QCheck.Test.make ~name:"Prng.int within bound" ~count:500
    QCheck.(pair int64 (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let g = Prng.create ~seed in
      let v = Prng.int g bound in
      v >= 0 && v < bound)

let prop_prng_int_in =
  QCheck.Test.make ~name:"Prng.int_in inclusive range" ~count:500
    QCheck.(triple int64 (int_range (-1000) 1000) (int_range 0 1000))
    (fun (seed, lo, span) ->
      let g = Prng.create ~seed in
      let v = Prng.int_in g ~lo ~hi:(lo + span) in
      v >= lo && v <= lo + span)

(* --- Units --- *)

let test_units_roundtrip () =
  Alcotest.(check bool) "2500 cycles = 1 us at 2.5GHz" true
    (feq (Units.us_of_cycles 2500L) 1.);
  Alcotest.(check bool) "roundtrip" true
    (feq ~eps:1e-9 (Units.s_of_cycles (Units.cycles_of_s 0.054)) 0.054);
  Alcotest.(check bool) "mb" true (feq (Units.mb_of_bytes 6_000_000) 6.)

(* --- Table --- *)

let test_table_render () =
  let s = Table.render ~header:[ "a"; "bb" ] [ [ "x"; "1" ]; [ "yy" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  (* All lines are equal width. *)
  match lines with
  | first :: rest ->
      List.iter
        (fun l ->
          Alcotest.(check int) "width" (String.length first) (String.length l))
        rest
  | [] -> Alcotest.fail "no lines"

let test_table_fmt () =
  Alcotest.(check string) "f2" "3.14" (Table.fmt_f 3.14159)

let qt = QCheck_alcotest.to_alcotest

let suite =
  [
    ("prng determinism", `Quick, test_prng_determinism);
    ("prng seeds differ", `Quick, test_prng_seed_sensitivity);
    ("prng copy", `Quick, test_prng_copy);
    ("units", `Quick, test_units_roundtrip);
    ("table render", `Quick, test_table_render);
    ("table fmt", `Quick, test_table_fmt);
    qt prop_prng_int_bound;
    qt prop_prng_int_in;
  ]
