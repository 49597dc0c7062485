let () = assert (Ufork_workload.M.seam 1 = 6)
