let () = print_int (Ufork_workload.M.used 1 + Ufork_workload.M.stale 2)
