(* One repetition of one workload in a fresh process, so that the
   process's peak RSS is the workload's own:

     main.exe --workload NAME [--seed N] [--trace]

   prints one JSON line (see Report) and exits 0, also when the run
   failed a check — the failure is in the line. [main.exe --calibrate]
   prints the seconds the reference kernel of {!Calibrate} took and its
   nominal time. run.py drives both. *)

open Perfbench

let () =
  let workload = ref "" and seed = ref 0 and trace = ref false in
  let calibrate = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the four workloads");
      ("--seed", Arg.Set_int seed, "N input seed (redis values)");
      ("--trace", Arg.Set trace, " per-layer (traced) repetition");
      ("--calibrate", Arg.Set calibrate, " time the reference kernel and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME [--seed N] [--trace]";
  if !calibrate then begin
    Printf.printf "{\"calibration_s\":%.9f,\"nominal_s\":%g}\n"
      (Calibrate.seconds ()) Calibrate.nominal_s;
    exit 0
  end;
  if not (List.mem !workload Workloads.names) then begin
    prerr_endline
      ("unknown workload; choose one of: " ^ String.concat ", " Workloads.names);
    exit 2
  end;
  let line =
    match Workloads.run_one ~detail:!trace ~seed:!seed Workloads.full !workload with
    | o -> Report.of_outcome o
    | exception e -> Report.of_crash ~workload:!workload (Printexc.to_string e)
  in
  print_endline line
