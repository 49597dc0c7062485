(* Print the full report of every chaos scenario, and of the two clean
   machines they start from, each under the scenario's name.

     dune exec test/sweep/reports.exe

   test/sweep/dune diffs the output against reports.expected, so a
   change in what the sanitizer or the linter says about an injected
   fault (which frame, which vpns, which words) fails `dune runtest`;
   `dune promote` accepts an intended change. *)

module Chaos = Ufork_analysis.Chaos
module Invariant = Ufork_analysis.Invariant

let entry name vs =
  Printf.sprintf "== %s\n%s\n" name
    (match vs with [] -> "clean" | vs -> Invariant.report vs)

let () =
  print_string
    (String.concat "\n"
       (entry "clean-machine" (Chaos.clean_machine ())
       :: entry "clean-cheribsd-machine" (Chaos.clean_cheribsd_machine ())
       :: List.map
            (fun (s : Chaos.scenario) -> entry s.Chaos.name (s.Chaos.detect ()))
            (Chaos.scenarios @ Chaos.cheribsd_scenarios)))
