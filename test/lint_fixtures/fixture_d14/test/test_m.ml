let () = assert (Ufork_workload.M.probe 1 = 4)
